// Package server exposes the sharded dynamic index (internal/shard)
// over an HTTP/JSON API — the online serving counterpart of the
// offline batch joins. One Server owns an index and layers the serving
// concerns on top of it:
//
//   - an LRU query cache whose entries are tagged with the per-shard
//     epoch vector, so any Insert/Delete invalidates affected results
//     implicitly (internal/server/cache.go); a miss sweeps the shards
//     on the request's own goroutine, so concurrent misses sweep
//     concurrently;
//   - per-request deadlines (504 instead of piling up) and bounded
//     request bodies;
//   - telemetry (internal/server/telemetry.go, metrics.go): every
//     request carries an X-Request-ID (honored or minted, echoed on
//     the response); every Nth request per endpoint is head-sampled
//     into a full span trace, and every request over the slow
//     threshold is tail-sampled retroactively; a bounded ring of
//     recent + slowest traces serves /debug/traces and
//     /debug/trace/{id}; Prometheus text exposition at /metrics;
//     rolling-window QPS and latency quantiles in /statusz; structured
//     request logs via log/slog.
//
// Endpoints:
//
//	POST /v1/search  {"items":[...]|"line":"1 2 3"|"id":N, "theta":0.2}
//	POST /v1/knn     {"items":[...]|"line":...|"id":N, "k":10}
//	POST /v1/insert  {"rankings":[{"id":1,"items":[...]}, ...]}
//	POST /v1/delete  {"ids":[...]}
//	POST /v1/join    {"rankings":[...], "theta":0.2}   (small ad-hoc self-join)
//	POST /v1/cluster/*  the peer-local plane behind the five above (cluster.go)
//	GET  /healthz    liveness probe
//	GET  /statusz    JSON status: shards, cache, filters, latency, windows
//	GET  /metrics    Prometheus text exposition
//	GET  /debug/traces      list of retained request traces
//	GET  /debug/trace/{id}  Chrome trace JSON for one request ID
//	GET  /debug/trace       Chrome trace JSON of the most recent retained trace
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rankjoin"
	"rankjoin/internal/cluster"
	"rankjoin/internal/obs"
	"rankjoin/internal/rankings"
	"rankjoin/internal/shard"
	"rankjoin/internal/wal"
)

// Config assembles a Server.
type Config struct {
	// Index is the serving index; nil builds a fresh default one.
	Index *shard.Index
	// CacheSize is the LRU query-cache capacity in entries (0 = 1024,
	// negative disables caching).
	CacheSize int
	// RequestTimeout bounds each request (0 = 5s).
	RequestTimeout time.Duration
	// MaxBodyBytes bounds request bodies (0 = 16 MiB).
	MaxBodyBytes int64
	// Logger receives structured request and lifecycle logs; nil
	// discards them.
	Logger *slog.Logger
	// TraceSampleEvery head-samples every Nth request per endpoint into
	// a full span trace (0 = 64, negative disables head sampling).
	TraceSampleEvery int
	// SlowThreshold tail-samples and Warn-logs every request at least
	// this slow (0 = 250ms, negative disables tail sampling).
	SlowThreshold time.Duration
	// TraceRingSize bounds the retained recent and slow traces, each
	// (0 = 32).
	TraceRingSize int
	// WindowInterval is the rolling-window snapshot cadence behind the
	// /statusz QPS and last-minute quantiles (0 = 5s, negative disables
	// the window loop — windowed stats then degrade to since-boot).
	WindowInterval time.Duration
	// Cluster is the ring this server is a peer of: /v1/search and
	// /v1/knn scatter-gather across its peers, /v1/insert and /v1/delete
	// route rankings to their ring owner, /v1/join runs as an SPMD join
	// over it. Nil is a ring of one — the same code with no other peer
	// to talk to.
	Cluster *cluster.Cluster
	// WAL, when non-nil, is the index's attached write-ahead log
	// manager: /v1/cluster/replicate serves epoch deltas from its
	// segments, and /metrics + /statusz export its durability series.
	// The caller owns its lifecycle (Open/Recover/Attach/Close); the
	// server only reads from it.
	WAL *wal.Manager
	// Replica, when non-nil, puts the server in follower mode: writes,
	// public and peer-local, are rejected with 403 (read-only), and the
	// replica's lag and sync counters are exported. The caller owns its
	// lifecycle.
	Replica *Replica
}

// Server is the rankserved request handler. Create with New, mount
// Handler, and Close when done.
type Server struct {
	idx      *shard.Index
	cache    *queryCache
	sweeps   atomic.Int64 // local shard sweeps, one per cache miss
	timeout  time.Duration
	maxBody  int64
	start    time.Time
	mux      *http.ServeMux
	requests map[string]*endpointStats
	windows  map[string]*obs.Window

	logger      *slog.Logger
	sampleEvery int64 // head-sample every Nth request per endpoint; 0 = off
	slowThresh  time.Duration
	traces      *obs.TraceRing

	winInterval time.Duration
	winStop     chan struct{}
	winDone     chan struct{}

	ridPrefix string
	ridSeq    atomic.Uint64

	sampledTotal atomic.Int64
	slowTotal    atomic.Int64

	cluster *cluster.Cluster // never nil: a single node is a ring of one
	wal     *wal.Manager     // nil without durability
	replica *Replica         // nil unless follower
}

// endpointStats tracks request admission, count and latency for one
// endpoint. started is the head-sampling counter, bumped on admission;
// count/errors move under mu after the handler returns.
type endpointStats struct {
	started atomic.Int64
	mu      sync.Mutex
	count   int64
	errors  int64
	latency obs.Histogram // microseconds
}

func (e *endpointStats) observe(d time.Duration, failed bool) {
	e.mu.Lock()
	e.count++
	if failed {
		e.errors++
	}
	e.mu.Unlock()
	e.latency.Observe(d.Microseconds())
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	idx := cfg.Index
	if idx == nil {
		idx = shard.New(shard.Config{})
	}
	cacheSize := cfg.CacheSize
	if cacheSize == 0 {
		cacheSize = 1024
	}
	timeout := cfg.RequestTimeout
	if timeout == 0 {
		timeout = 5 * time.Second
	}
	maxBody := cfg.MaxBodyBytes
	if maxBody == 0 {
		maxBody = 16 << 20
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	sampleEvery := int64(cfg.TraceSampleEvery)
	switch {
	case sampleEvery == 0:
		sampleEvery = defaultTraceSampleEvery
	case sampleEvery < 0:
		sampleEvery = 0
	}
	slowThresh := cfg.SlowThreshold
	switch {
	case slowThresh == 0:
		slowThresh = defaultSlowThreshold
	case slowThresh < 0:
		slowThresh = 0
	}
	ringSize := cfg.TraceRingSize
	if ringSize <= 0 {
		ringSize = defaultTraceRingSize
	}
	winInterval := cfg.WindowInterval
	if winInterval == 0 {
		winInterval = defaultWindowInterval
	}
	clu := cfg.Cluster
	if clu == nil {
		// A single node is a ring of one, not a second program: every
		// endpoint below has one body, and this is the one place the
		// package asks whether it was given a ring.
		var err error
		if clu, err = cluster.New(cluster.Config{Peers: []string{"self"}, Logger: logger}); err != nil {
			panic(err) // a one-peer list is valid by construction
		}
	}
	now := time.Now()
	s := &Server{
		idx:         idx,
		cache:       newQueryCache(cacheSize),
		timeout:     timeout,
		maxBody:     maxBody,
		start:       now,
		mux:         http.NewServeMux(),
		requests:    make(map[string]*endpointStats),
		windows:     make(map[string]*obs.Window),
		logger:      logger,
		sampleEvery: sampleEvery,
		slowThresh:  slowThresh,
		traces:      obs.NewTraceRing(ringSize),
		winInterval: winInterval,
		ridPrefix:   fmt.Sprintf("%08x-", uint32(now.UnixNano())),
		cluster:     clu,
		wal:         cfg.WAL,
		replica:     cfg.Replica,
	}
	s.route("/v1/search", http.MethodPost, s.handleSearch)
	s.route("/v1/knn", http.MethodPost, s.handleKNN)
	s.route("/v1/insert", http.MethodPost, s.handleInsert)
	s.route("/v1/delete", http.MethodPost, s.handleDelete)
	s.route("/v1/join", http.MethodPost, s.handleJoin)
	s.route("/healthz", http.MethodGet, s.handleHealthz)
	s.route("/statusz", http.MethodGet, s.handleStatusz)
	s.route("/metrics", http.MethodGet, s.handleMetrics)
	s.route("/debug/traces", http.MethodGet, s.handleTraces)
	s.route("/debug/trace", http.MethodGet, s.handleTrace)
	s.route("/debug/trace/{id}", http.MethodGet, s.handleTraceByID)
	s.route(cluster.PathSearch, http.MethodPost, s.handleClusterSearch)
	s.route(cluster.PathGet, http.MethodPost, s.handleClusterGet)
	s.route(cluster.PathInsert, http.MethodPost, s.handleClusterInsert)
	s.route(cluster.PathDelete, http.MethodPost, s.handleClusterDelete)
	s.route(cluster.PathShuffle, http.MethodPost, s.handleClusterShuffle)
	s.route(cluster.PathJoin, http.MethodPost, s.handleClusterJoin)
	// A leader with a WAL (or without one — full snapshots still work)
	// feeds followers, and a follower can chain further followers.
	s.route(cluster.PathReplicate, http.MethodPost, s.handleReplicate)
	if winInterval > 0 {
		s.winStop = make(chan struct{})
		s.winDone = make(chan struct{})
		go s.windowLoop()
	}
	return s
}

// Index returns the serving index (for preloading and tests).
func (s *Server) Index() *shard.Index { return s.idx }

// Handler returns the root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops the telemetry window loop. Requests run on their
// callers' goroutines, so Close has none to stop: a handler still
// running after it still answers from the index. Stop the HTTP server
// first to drain them.
func (s *Server) Close() {
	if s.winStop != nil {
		close(s.winStop)
		<-s.winDone
		s.winStop = nil
	}
}

// route registers an instrumented handler: method check, body bound,
// deadline, request ID, head/tail trace sampling, request count +
// latency, structured logs. The telemetry on the unsampled path is
// allocation-free — two atomics and a histogram observe.
func (s *Server) route(path, method string, h func(http.ResponseWriter, *http.Request) error) {
	st := &endpointStats{}
	s.requests[path] = st
	s.windows[path] = obs.NewWindow(windowSpan, time.Now())
	spanName := "http " + path
	s.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		// Mint the request id before any rejection: even a 405 should
		// be correlatable by the id the client sent (or we minted).
		rid := s.requestID(r)
		w.Header().Set("X-Request-Id", rid)
		if r.Method != method {
			w.Header().Set("Allow", method)
			writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use %s", method))
			return
		}
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
		defer cancel()
		n := st.started.Add(1)
		sampled := s.sampleEvery > 0 && (n-1)%s.sampleEvery == 0
		var tr *obs.Tracer
		var root *obs.Span
		if sampled {
			tr = obs.NewTracer()
			root = tr.StartScope(spanName, obs.String("request_id", rid))
			ctx = context.WithValue(ctx, spanKey{}, root)
		}
		start := time.Now()
		err := h(w, r.WithContext(ctx))
		dur := time.Since(start)
		root.End()
		st.observe(dur, err != nil)
		slow := s.slowThresh > 0 && dur >= s.slowThresh
		if sampled || slow {
			s.retainTrace(spanName, rid, start, dur, tr, sampled, slow)
		}
		s.logRequest(r.Context(), path, rid, statusOf(err), dur, slow)
	})
}

// httpError carries a status code out of a handler.
type httpError struct {
	status int
	err    error
}

func (e *httpError) Error() string { return e.err.Error() }

var errNoSuchTrace = errors.New("no such trace retained")

// errReadOnly rejects writes on a follower replica: its state is a
// copy of the leader's, so a local mutation would fork the epoch
// history and be silently overwritten by the next sync.
var errReadOnly = errors.New("follower is read-only; send writes to the leader")

func badRequest(err error) error { return &httpError{status: http.StatusBadRequest, err: err} }

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()}) //nolint:errcheck
}

// statusOf maps a handler error to the HTTP status it produces — the
// single source of truth shared by the wire mapping (finish) and the
// request logs.
func statusOf(err error) int {
	if err == nil {
		return http.StatusOK
	}
	var he *httpError
	switch {
	case errors.As(err, &he):
		return he.status
	case errors.Is(err, cluster.ErrAllShardsFailed):
		return http.StatusBadGateway // whatever the legs died of, deadlines included
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, errReadOnly):
		return http.StatusForbidden
	case errors.Is(err, shard.ErrKMismatch), errors.Is(err, shard.ErrNilRanking),
		errors.Is(err, rankjoin.ErrDuplicateID), errors.Is(err, rankjoin.ErrMixedLengths):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// finish maps a handler error onto the wire.
func finish(w http.ResponseWriter, err error) error {
	if err == nil {
		return nil
	}
	status, msg := statusOf(err), err
	var he *httpError
	switch {
	case errors.As(err, &he):
		msg = he.err
	case status == http.StatusGatewayTimeout:
		msg = errors.New("request deadline exceeded")
	}
	writeError(w, status, msg)
	return err
}

func writeJSON(w http.ResponseWriter, v any) error {
	w.Header().Set("Content-Type", "application/json")
	return json.NewEncoder(w).Encode(v)
}

// --- request/response shapes ---

type queryRequest struct {
	Items []rankings.Item `json:"items,omitempty"`
	Line  string          `json:"line,omitempty"`
	ID    *int64          `json:"id,omitempty"`
	Theta *float64        `json:"theta,omitempty"`
	K     int             `json:"k,omitempty"`
}

type searchResponse struct {
	Hits []shard.Neighbor `json:"hits"`
	// Cached reports the answering node's own leg of the scatter.
	Cached bool `json:"cached"`
	// Partial marks an answer that is missing the shards of the peers
	// named in PeersFailed (degraded, not failed).
	Partial     bool     `json:"partial,omitempty"`
	PeersFailed []string `json:"peers_failed,omitempty"`
}

// parseQuery resolves the three accepted query spellings into a
// validated, indexed ranking plus the id to exclude from results
// (self-exclusion when querying by indexed id).
func (s *Server) parseQuery(ctx context.Context, req *queryRequest) (*rankings.Ranking, int64, error) {
	switch {
	case req.ID != nil:
		if len(req.Items) > 0 || req.Line != "" {
			return nil, 0, badRequest(errors.New("give exactly one of items, line, id"))
		}
		r, err := s.lookup(ctx, *req.ID)
		if err != nil {
			return nil, 0, err
		}
		return r, *req.ID, nil
	case req.Line != "":
		if len(req.Items) > 0 {
			return nil, 0, badRequest(errors.New("give exactly one of items, line, id"))
		}
		q, err := rankings.ParseLine(req.Line, shard.NoExclude)
		if err != nil {
			return nil, 0, badRequest(err)
		}
		q.Index()
		return q, shard.NoExclude, nil
	case len(req.Items) > 0:
		q, err := rankings.New(shard.NoExclude, req.Items)
		if err != nil {
			return nil, 0, badRequest(err)
		}
		q.Index()
		return q, shard.NoExclude, nil
	default:
		return nil, 0, badRequest(errors.New("missing query: give items, line or id"))
	}
}

func (s *Server) checkQueryK(q *rankings.Ranking) error {
	if k := s.idx.K(); k != 0 && q.K() != k {
		return badRequest(fmt.Errorf("query k=%d, index k=%d", q.K(), k))
	}
	return nil
}

func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return &httpError{
				status: http.StatusRequestEntityTooLarge,
				err:    fmt.Errorf("request body exceeds %d bytes", mbe.Limit),
			}
		}
		return badRequest(fmt.Errorf("bad request body: %w", err))
	}
	return nil
}

// --- endpoints ---

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) error {
	var req queryRequest
	if err := decode(r, &req); err != nil {
		return finish(w, err)
	}
	if req.Theta == nil {
		return finish(w, badRequest(errors.New("missing theta")))
	}
	theta := *req.Theta
	if !rankings.ThetaInRange(theta) {
		return finish(w, badRequest(fmt.Errorf("theta %v out of [0,1]", theta)))
	}
	q, exclude, err := s.parseQuery(r.Context(), &req)
	if err != nil {
		return finish(w, err)
	}
	if err := s.checkQueryK(q); err != nil {
		return finish(w, err)
	}
	// The query's own k is the ring-wide k (inserts enforce uniformity
	// on every peer), so each peer derives the same cutoff from theta.
	return s.search(r.Context(), w, shard.Query{R: q, MaxDist: rankings.Threshold(theta, q.K()), Exclude: exclude}, theta)
}

func (s *Server) handleKNN(w http.ResponseWriter, r *http.Request) error {
	var req queryRequest
	if err := decode(r, &req); err != nil {
		return finish(w, err)
	}
	if req.K <= 0 {
		return finish(w, badRequest(fmt.Errorf("k must be positive, got %d", req.K)))
	}
	q, exclude, err := s.parseQuery(r.Context(), &req)
	if err != nil {
		return finish(w, err)
	}
	if err := s.checkQueryK(q); err != nil {
		return finish(w, err)
	}
	return s.search(r.Context(), w, shard.Query{R: q, KNN: req.K, Exclude: exclude}, 0)
}

// search answers a public search/kNN: a scatter over the ring whose
// local leg is localSearch. On a ring of one that leg is the answer.
func (s *Server) search(ctx context.Context, w http.ResponseWriter, q shard.Query, theta float64) error {
	// Opened only under a head-sampled root — the variadic attribute
	// would otherwise allocate on every request — and carried in the
	// context, so the local sweep nests under it instead of beside it.
	var sp *obs.Span
	if root := ctxSpan(ctx); root != nil {
		sp = root.StartChild("serve/scatter", obs.Int("peers", int64(s.cluster.Size())))
		defer sp.End()
		ctx = context.WithValue(ctx, spanKey{}, sp)
	}
	cached := false
	req := cluster.SearchReq{Items: q.R.Items, Theta: theta, KNN: q.KNN, Exclude: q.Exclude}
	res, err := s.cluster.Scatter(ctx, req, func(ctx context.Context) (hits []shard.Neighbor, err error) {
		hits, cached, err = s.localSearch(ctx, q)
		return hits, err
	})
	if err != nil {
		return finish(w, err)
	}
	sp.SetInt("hits", int64(len(res.Hits)))
	sp.SetInt("peers_failed", int64(len(res.Failed)))
	return writeJSON(w, searchResponse{Hits: nonNil(res.Hits), Cached: cached, Partial: res.Partial, PeersFailed: res.Failed})
}

// localSearch is the only place a peer answers a query from its own
// index — the local leg of a scatter and the peer-local endpoint alike:
// the epoch-tagged cache, then a sweep on the caller's goroutine. The
// cache sits under the scatter because that is the one position correct
// for every ring size: an entry is keyed by this peer's epochs and holds
// this peer's leg, so no mutation on another peer can make it stale.
// A sweep holds one shard's read lock at a time, so concurrent misses
// sweep side by side, each on an arena drawn from the index's pool. A
// head-sampled request's span rides the context in, and the sweep
// records its shard tasks under it.
func (s *Server) localSearch(ctx context.Context, q shard.Query) (hits []shard.Neighbor, cached bool, err error) {
	if s.idx.K() == 0 {
		return nil, false, nil // nothing indexed yet, so no k to sweep at
	}
	kind, param := "s", q.MaxDist
	if q.KNN > 0 {
		kind, param = "k", q.KNN
	}
	key := cacheKey(kind, q.R, param, q.Exclude)
	epochs := s.idx.Epochs()
	root := ctxSpan(ctx)
	if hits, ok := s.cache.get(key, epochs); ok {
		root.SetAttr("cache", "hit")
		return hits, true, nil
	}
	sweep := root.StartChild("serve/sweep")
	res, err := s.idx.SearchBatch([]shard.Query{q}, sweep)
	sweep.End()
	if err != nil {
		return nil, false, err
	}
	s.sweeps.Add(1)
	s.cache.put(key, epochs, res[0])
	return res[0], false, nil
}

func nonNil(ns []shard.Neighbor) []shard.Neighbor {
	if ns == nil {
		return []shard.Neighbor{}
	}
	return ns
}

// Rankings arrive validated by UnmarshalJSON; only a null bypasses it.
type insertRequest struct {
	Rankings []*rankings.Ranking `json:"rankings"`
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) error {
	var req insertRequest
	if err := decode(r, &req); err != nil {
		return finish(w, err)
	}
	if len(req.Rankings) == 0 {
		return finish(w, badRequest(errors.New("missing rankings")))
	}
	ctx := r.Context()
	sp := ctxSpan(ctx).StartChild("serve/insert",
		obs.Int("rankings", int64(len(req.Rankings))))
	defer sp.End()
	if slices.Contains(req.Rankings, nil) {
		return finish(w, shard.ErrNilRanking)
	}
	n, err := routed(s.cluster, "insert", s.cluster.GroupByOwner(req.Rankings), s.insertLocal,
		func(peer int, share []*rankings.Ranking) (int, error) {
			return len(share), s.cluster.UpsertPeer(ctx, peer, share)
		})
	if err != nil {
		return finish(w, err)
	}
	sp.SetInt("inserted", int64(n))
	return writeJSON(w, map[string]any{"inserted": n, "size": s.idx.Len()})
}

type deleteRequest struct {
	IDs []int64 `json:"ids"`
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) error {
	var req deleteRequest
	if err := decode(r, &req); err != nil {
		return finish(w, err)
	}
	if len(req.IDs) == 0 {
		return finish(w, badRequest(errors.New("missing ids")))
	}
	ctx := r.Context()
	sp := ctxSpan(ctx).StartChild("serve/delete",
		obs.Int("ids", int64(len(req.IDs))))
	defer sp.End()
	n, err := routed(s.cluster, "delete", s.cluster.GroupIDsByOwner(req.IDs), s.deleteLocal,
		func(peer int, share []int64) (int, error) {
			return s.cluster.DeletePeer(ctx, peer, share)
		})
	if err != nil {
		return finish(w, err)
	}
	sp.SetInt("deleted", int64(n))
	return writeJSON(w, map[string]any{"deleted": n, "size": s.idx.Len()})
}

// insertLocal and deleteLocal are the package's only writers to the
// index: the self share of a routed mutation and the peer-local
// endpoints both end here, so a follower's read-only rule is decided
// once, whichever plane the write arrived on.
func (s *Server) insertLocal(rs []*rankings.Ranking) (int, error) {
	if s.replica != nil {
		return 0, errReadOnly
	}
	for i, rk := range rs {
		if err := s.idx.Insert(rk); err != nil {
			return i, err
		}
	}
	return len(rs), nil
}

// deleteLocal reports how many of ids were present.
func (s *Server) deleteLocal(ids []int64) (int, error) {
	if s.replica != nil {
		return 0, errReadOnly
	}
	n := 0
	for _, id := range ids {
		ok, err := s.idx.Delete(id)
		if err != nil {
			return n, fmt.Errorf("delete %d: %w", id, err)
		}
		if ok {
			n++
		}
	}
	return n, nil
}

type joinRequest struct {
	Rankings []*rankings.Ranking `json:"rankings"`
	Theta    *float64            `json:"theta"`
}

type pairJSON struct {
	A    int64 `json:"a"`
	B    int64 `json:"b"`
	Dist int   `json:"dist"`
}

// maxJoinInput caps the ad-hoc /v1/join input.
const maxJoinInput = 2048

// handleJoin runs a small ad-hoc self-join over request-supplied
// rankings — the "try the join on my data" path; heavy joins belong in
// the offline pipelines (cmd/rankjoin).
func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) error {
	var req joinRequest
	if err := decode(r, &req); err != nil {
		return finish(w, err)
	}
	if req.Theta == nil || !rankings.ThetaInRange(*req.Theta) {
		return finish(w, badRequest(errors.New("theta must be in [0,1]")))
	}
	if len(req.Rankings) == 0 {
		return finish(w, badRequest(errors.New("missing rankings")))
	}
	if len(req.Rankings) > maxJoinInput {
		return finish(w, &httpError{status: http.StatusRequestEntityTooLarge,
			err: fmt.Errorf("ad-hoc join capped at %d rankings, got %d", maxJoinInput, len(req.Rankings))})
	}
	rs := req.Rankings
	for _, rk := range rs {
		if rk == nil {
			return finish(w, shard.ErrNilRanking)
		}
		rk.Index()
	}
	ctx := r.Context()
	sp := ctxSpan(ctx).StartChild("serve/join",
		obs.Int("rankings", int64(len(rs))))
	defer sp.End()
	// VJ is exact, and its prefix-index stages run on flow, so on a ring
	// of more than one the shuffles genuinely cross the wire instead of
	// degenerating into N independent local computations the way brute
	// force would; a ring of one runs the same job on a local engine.
	// The join outlives the request deadline by design (JoinTimeout
	// bounds it), hence WithoutCancel.
	res, err := s.cluster.DistributedJoin(context.WithoutCancel(ctx), rs, rankjoin.Options{
		Algorithm: rankjoin.AlgVJ,
		Theta:     *req.Theta,
	})
	if err != nil {
		if statusOf(err) != http.StatusBadRequest { // not the input's fault: a peer or a shuffle failed
			err = &httpError{status: http.StatusBadGateway, err: err}
		}
		return finish(w, err)
	}
	sp.SetInt("pairs", int64(len(res.Pairs)))
	out := make([]pairJSON, len(res.Pairs))
	for i, p := range res.Pairs {
		out[i] = pairJSON{A: p.A, B: p.B, Dist: p.Dist}
	}
	return writeJSON(w, map[string]any{"pairs": out, "distributed": s.cluster.Size() > 1})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) error {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, err := w.Write([]byte("ok\n"))
	return err
}

// Status is the /statusz document; also returned by Status() for
// in-process consumers (expvar publishing, tests).
type Status struct {
	UptimeSeconds float64                   `json:"uptime_s"`
	K             int                       `json:"k"`
	Size          int                       `json:"size"`
	Shards        []shard.Stats             `json:"shards"`
	ShardSizes    string                    `json:"shard_sizes"`
	Filters       obs.FilterDelta           `json:"filters"`
	Cache         CacheStatus               `json:"cache"`
	Batch         BatchStatus               `json:"batch"`
	Requests      map[string]EndpointStatus `json:"requests"`
	Windows       map[string]WindowStatus   `json:"windows"`
	Traces        TracesStatus              `json:"traces"`
	LastTrace     TraceStatus               `json:"last_trace"`
	// Cluster is this node's view of its ring (one peer, itself, on a
	// single node).
	Cluster cluster.Status `json:"cluster"`
	// WAL is present only when a write-ahead log is attached.
	WAL *WALStatus `json:"wal,omitempty"`
	// Replica is present only in follower mode.
	Replica *ReplicaStatus `json:"replica,omitempty"`
}

// WALStatus summarizes durability for /statusz.
type WALStatus struct {
	Records        int64    `json:"records"`
	AppendedBytes  int64    `json:"appended_bytes"`
	DurableBytes   int64    `json:"durable_bytes"`
	Fsyncs         int64    `json:"fsyncs"`
	FsyncP50us     int64    `json:"fsync_p50_us"`
	FsyncP99us     int64    `json:"fsync_p99_us"`
	Snapshots      int64    `json:"snapshots"`
	SnapshotErrors int64    `json:"snapshot_errors"`
	SnapshotAgeS   float64  `json:"snapshot_age_s"`
	SnapshotEpochs []uint64 `json:"snapshot_epochs"`
}

// CacheStatus summarizes the query cache.
type CacheStatus struct {
	Hits     int64   `json:"hits"`
	Misses   int64   `json:"misses"`
	HitRatio float64 `json:"hit_ratio"`
	Entries  int     `json:"entries"`
	Capacity int     `json:"capacity"`
}

// BatchStatus counts the local shard sweeps, one per cache miss. No
// sweep answers more than one request, so MeanSize reads 1 once a sweep
// has run and Coalesced reads 0; those two fields are kept only because
// the benchmark harness (benchmark/layers.go) reads them.
type BatchStatus struct {
	Sweeps    int64   `json:"sweeps"`
	Coalesced int64   `json:"coalesced_requests"`
	MeanSize  float64 `json:"mean_size"`
}

// EndpointStatus summarizes one endpoint's cumulative traffic.
type EndpointStatus struct {
	Count  int64 `json:"count"`
	Errors int64 `json:"errors"`
	P50us  int64 `json:"p50_us"`
	P99us  int64 `json:"p99_us"`
	Maxus  int64 `json:"max_us"`
}

// WindowStatus summarizes one endpoint's rolling-window traffic: the
// current request rate and recent latency quantiles over (roughly) the
// last windowSpan.
type WindowStatus struct {
	WindowSeconds float64 `json:"window_s"`
	Count         int64   `json:"count"`
	QPS           float64 `json:"qps"`
	P50us         int64   `json:"p50_us"`
	P99us         int64   `json:"p99_us"`
}

// TracesStatus summarizes trace sampling and retention.
type TracesStatus struct {
	SampledTotal int64 `json:"sampled_total"`
	SlowTotal    int64 `json:"slow_total"`
	Recent       int   `json:"recent"`
	Slow         int   `json:"slow"`
}

// TraceStatus reports on the most recent retained trace.
type TraceStatus struct {
	Present bool   `json:"present"`
	ID      string `json:"id,omitempty"`
	Valid   bool   `json:"valid"`
	Error   string `json:"error,omitempty"`
}

// Status assembles the current server status.
func (s *Server) Status() Status {
	shardStats := s.idx.Stats()
	// Cardinalities is the cheap per-shard size accessor (ints only, no
	// ranking copies); it also saves the extra per-shard locking round a
	// separate idx.Len() would take.
	var sizes obs.Histogram
	size := 0
	for _, c := range s.idx.Cardinalities() {
		size += c
		sizes.Observe(int64(c))
	}
	hits, misses := s.cache.stats()
	hitRatio := 0.0
	if total := hits + misses; total > 0 {
		hitRatio = float64(hits) / float64(total)
	}
	sweeps := s.sweeps.Load()
	meanSize := 0.0
	if sweeps > 0 {
		meanSize = 1
	}
	st := Status{
		UptimeSeconds: time.Since(s.start).Seconds(),
		K:             s.idx.K(),
		Size:          size,
		Shards:        shardStats,
		ShardSizes:    sizes.Snapshot().String(),
		Filters:       s.idx.Filters().Snapshot(),
		Cache: CacheStatus{
			Hits: hits, Misses: misses, HitRatio: hitRatio,
			Entries: s.cache.len(), Capacity: s.cache.capacity(),
		},
		Batch: BatchStatus{Sweeps: sweeps, MeanSize: meanSize},
		Traces: TracesStatus{
			SampledTotal: s.sampledTotal.Load(),
			SlowTotal:    s.slowTotal.Load(),
			Recent:       len(s.traces.Recent()),
			Slow:         len(s.traces.Slow()),
		},
		Cluster:  s.cluster.StatusSnapshot(),
		Requests: make(map[string]EndpointStatus, len(s.requests)),
		Windows:  make(map[string]WindowStatus, len(s.requests)),
	}
	if s.wal != nil {
		ws := s.wal.Stats()
		st.WAL = &WALStatus{
			Records:        ws.Records,
			AppendedBytes:  ws.AppendedBytes,
			DurableBytes:   ws.DurableBytes,
			Fsyncs:         ws.Fsyncs,
			FsyncP50us:     ws.FsyncMicros.Quantile(0.50),
			FsyncP99us:     ws.FsyncMicros.Quantile(0.99),
			Snapshots:      ws.Snapshots,
			SnapshotErrors: ws.SnapshotErrors,
			SnapshotAgeS:   ws.SnapshotAge,
			SnapshotEpochs: ws.SnapshotEpochs,
		}
	}
	if s.replica != nil {
		rs := s.replica.Status()
		st.Replica = &rs
	}
	now := time.Now()
	for path, es := range s.requests {
		es.mu.Lock()
		count, errs := es.count, es.errors
		es.mu.Unlock()
		lat := es.latency.Snapshot()
		st.Requests[path] = EndpointStatus{
			Count: count, Errors: errs,
			P50us: lat.Quantile(0.50), P99us: lat.Quantile(0.99), Maxus: lat.Max,
		}
		elapsed, delta := s.windows[path].Delta(now, lat)
		qps := 0.0
		if secs := elapsed.Seconds(); secs > 0 {
			qps = float64(delta.Count) / secs
		}
		st.Windows[path] = WindowStatus{
			WindowSeconds: elapsed.Seconds(),
			Count:         delta.Count,
			QPS:           qps,
			P50us:         delta.Quantile(0.50),
			P99us:         delta.Quantile(0.99),
		}
	}
	if recent := s.traces.Recent(); len(recent) > 0 {
		rec := recent[0]
		st.LastTrace.Present = true
		st.LastTrace.ID = rec.ID
		if err := rec.Tracer.Validate(); err != nil {
			st.LastTrace.Error = err.Error()
		} else {
			st.LastTrace.Valid = true
		}
	}
	return st
}

func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) error {
	return writeJSON(w, s.Status())
}
