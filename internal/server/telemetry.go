package server

import (
	"context"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"time"

	"rankjoin/internal/obs"
)

// Telemetry defaults; Config overrides, negative values disable.
const (
	defaultTraceSampleEvery = 64
	defaultSlowThreshold    = 250 * time.Millisecond
	defaultTraceRingSize    = 32
	defaultWindowInterval   = 5 * time.Second

	// windowSpan is the rolling-statistics horizon /statusz reports
	// (current QPS, last-minute p50/p99).
	windowSpan = time.Minute
)

// spanKey carries a head-sampled request's root span through the
// request context down to the local sweep and the mutating handlers.
type spanKey struct{}

// ctxSpan returns the request's root span, or nil when the request is
// not head-sampled. Every obs.Span method no-ops on nil, so callers
// use the result unconditionally.
func ctxSpan(ctx context.Context) *obs.Span {
	sp, _ := ctx.Value(spanKey{}).(*obs.Span)
	return sp
}

// requestID returns the client's X-Request-ID or mints one. Minted IDs
// are `<boot-prefix><seq>`: unique within the process and cheap enough
// to stamp on every request.
func (s *Server) requestID(r *http.Request) string {
	if rid := r.Header.Get("X-Request-ID"); rid != "" {
		return rid
	}
	return s.ridPrefix + strconv.FormatUint(s.ridSeq.Add(1), 10)
}

// retainTrace parks one finished request's trace in the ring. Requests
// that were not head-sampled but crossed the slow threshold get a
// retroactive single-span trace (the tail sample): no span detail, but
// the request is still retrievable by its ID as a Chrome trace.
func (s *Server) retainTrace(name, rid string, start time.Time, dur time.Duration, tr *obs.Tracer, sampled, slow bool) {
	if sampled {
		s.sampledTotal.Add(1)
	}
	if slow {
		s.slowTotal.Add(1)
	}
	if tr == nil {
		tr = obs.NewTracerAt(start)
		tr.Complete(name, start, dur,
			obs.String("request_id", rid), obs.String("tail_sampled", "true"))
	}
	s.traces.Add(&obs.TraceRecord{
		ID: rid, Name: name, Start: start, Dur: dur,
		Slow: slow, Sampled: sampled, Tracer: tr,
	})
}

// windowLoop periodically snapshots every endpoint's cumulative latency
// histogram into its rolling window. Windowing costs nothing on the
// request path: deltas are computed at /statusz scrape time from these
// snapshots.
func (s *Server) windowLoop() {
	defer close(s.winDone)
	t := time.NewTicker(s.winInterval)
	defer t.Stop()
	for {
		select {
		case now := <-t.C:
			for path, st := range s.requests {
				s.windows[path].Record(now, st.latency.Snapshot())
			}
		case <-s.winStop:
			return
		}
	}
}

// traceSummary is one /debug/traces listing entry.
type traceSummary struct {
	ID      string `json:"id"`
	Name    string `json:"name"`
	Start   string `json:"start"`
	DurUS   int64  `json:"dur_us"`
	Slow    bool   `json:"slow"`
	Sampled bool   `json:"sampled"`
}

func summarize(recs []*obs.TraceRecord) []traceSummary {
	out := make([]traceSummary, len(recs))
	for i, r := range recs {
		out[i] = traceSummary{
			ID: r.ID, Name: r.Name,
			Start: r.Start.UTC().Format(time.RFC3339Nano),
			DurUS: r.Dur.Microseconds(),
			Slow:  r.Slow, Sampled: r.Sampled,
		}
	}
	return out
}

// handleTraces lists the retained traces: the most recent sampled
// requests and the slowest tail-sampled ones, newest first. Fetch any
// entry's full Chrome trace from /debug/trace/{id}.
func (s *Server) handleTraces(w http.ResponseWriter, _ *http.Request) error {
	return writeJSON(w, map[string]any{
		"recent": summarize(s.traces.Recent()),
		"slow":   summarize(s.traces.Slow()),
	})
}

// handleTraceByID serves one retained request trace as Chrome trace
// JSON, addressed by its X-Request-ID.
func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) error {
	rec := s.traces.Get(r.PathValue("id"))
	if rec == nil {
		return finish(w, &httpError{status: http.StatusNotFound,
			err: errNoSuchTrace})
	}
	w.Header().Set("Content-Type", "application/json")
	return rec.Tracer.WriteChromeTrace(w)
}

// handleTrace (legacy single-slot endpoint) serves the most recent
// retained trace.
func (s *Server) handleTrace(w http.ResponseWriter, _ *http.Request) error {
	recent := s.traces.Recent()
	if len(recent) == 0 {
		return finish(w, &httpError{status: http.StatusNotFound,
			err: errNoSuchTrace})
	}
	w.Header().Set("Content-Type", "application/json")
	return recent[0].Tracer.WriteChromeTrace(w)
}

// sortedPaths returns the registered endpoint paths in stable order for
// deterministic /metrics output.
func (s *Server) sortedPaths() []string {
	paths := make([]string, 0, len(s.requests))
	for p := range s.requests {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// logRequest emits the structured per-request telemetry: a Warn line
// for slow requests (always, when tail sampling is on) and a Debug
// access line. The Enabled guard keeps the attr boxing off the fast
// path when access logging is off.
func (s *Server) logRequest(ctx context.Context, path, rid string, status int, dur time.Duration, slow bool) {
	if slow {
		s.logger.LogAttrs(ctx, slog.LevelWarn, "slow request",
			slog.String("path", path), slog.String("request_id", rid),
			slog.Int("status", status), slog.Duration("dur", dur),
			slog.Duration("threshold", s.slowThresh))
		return
	}
	if s.logger.Enabled(ctx, slog.LevelDebug) {
		s.logger.LogAttrs(ctx, slog.LevelDebug, "request",
			slog.String("path", path), slog.String("request_id", rid),
			slog.Int("status", status), slog.Duration("dur", dur))
	}
}
