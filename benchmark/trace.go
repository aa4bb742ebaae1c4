package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the call; nothing inside the program is instrumented. parent
// indexes the span that caused it (-1 for a root), req groups the spans
// of one replayed request.
type span struct {
	name       string
	layer      string
	parent     int
	req        int
	start, end time.Duration // since recorder start
}

// recorder keeps spans in memory until the run ends. A nil recorder is
// the untraced run: begin and end do nothing.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(layer, name string, parent, req int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans = append(r.spans, span{name: name, layer: layer, parent: parent, req: req, start: now})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id].end = now
	r.mu.Unlock()
}

// writeChrome writes the spans as Chrome trace-event JSON (complete
// "X" events; one track per layer), loadable in Perfetto or
// chrome://tracing.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	tids := map[string]int{}
	events := make([]event, 0, len(r.spans))
	for i, s := range r.spans {
		tid, ok := tids[s.layer]
		if !ok {
			tid = len(tids) + 1
			tids[s.layer] = tid
		}
		events = append(events, event{
			Name: s.name, Cat: s.layer, Ph: "X",
			TS: us(s.start), Dur: us(s.end - s.start), PID: 1, TID: tid,
			Args: map[string]int{"span": i, "parent": s.parent, "request": s.req},
		})
	}
	blob, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
