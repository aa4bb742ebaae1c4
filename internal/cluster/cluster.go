package cluster

import (
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rankjoin"
	"rankjoin/internal/obs"
)

// Config describes one peer's view of the cluster. All peers must be
// configured with the identical Peers list (order included) — peer
// rank is list position, and both ring placement and SPMD worker
// identity derive from it.
type Config struct {
	// Self is this peer's index into Peers.
	Self int
	// Peers is the ordered list of peer addresses (host:port). A
	// one-element list is a ring of one — what a single node runs on.
	Peers []string
	// RPCTimeout bounds one serving-plane RPC (search, get, upsert,
	// delete), including its hedge. Default 2s.
	RPCTimeout time.Duration
	// HedgeDelay is how long the first attempt may stay silent before
	// a duplicate is launched. Default 100ms.
	HedgeDelay time.Duration
	// JoinTimeout bounds a whole distributed join, including every
	// shuffle wait. Default 2m.
	JoinTimeout time.Duration
	// ProbeEvery is the half-open probe interval for down peers.
	// Default 1s.
	ProbeEvery time.Duration
	// JoinWorkers is the per-peer flow worker count for distributed
	// joins. Default GOMAXPROCS.
	JoinWorkers int
	// Logger receives cluster events. Default slog.Default().
	Logger *slog.Logger
}

// Cluster is one peer's runtime: the placement ring, outbound links to
// every other peer, the shuffle inbox, and the distributed-join
// registry. It is created once at process start and shared by the
// serving handlers and the join coordinator.
type Cluster struct {
	cfg    Config
	ring   *Ring
	peers  []*peerClient // index aligned with cfg.Peers; peers[Self] is nil
	inbox  *inbox
	logger *slog.Logger

	jobs jobTable

	// partials counts scatter-gather responses served degraded because
	// at least one peer failed.
	partials atomic.Int64
	// framesSent / bytesSent count outbound shuffle frames.
	framesSent atomic.Int64
	bytesSent  atomic.Int64
}

// New validates cfg, applies defaults, and builds the peer runtime.
func New(cfg Config) (*Cluster, error) {
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: empty peer list")
	}
	if cfg.Self < 0 || cfg.Self >= len(cfg.Peers) {
		return nil, fmt.Errorf("cluster: self index %d outside peer list of %d", cfg.Self, len(cfg.Peers))
	}
	seen := make(map[string]int, len(cfg.Peers))
	for i, addr := range cfg.Peers {
		if addr == "" {
			return nil, fmt.Errorf("cluster: peer %d has empty address", i)
		}
		if j, dup := seen[addr]; dup {
			return nil, fmt.Errorf("cluster: peers %d and %d share address %s", j, i, addr)
		}
		seen[addr] = i
	}
	if cfg.RPCTimeout == 0 {
		cfg.RPCTimeout = 2 * time.Second
	}
	if cfg.HedgeDelay == 0 {
		cfg.HedgeDelay = 100 * time.Millisecond
	}
	if cfg.JoinTimeout == 0 {
		cfg.JoinTimeout = 2 * time.Minute
	}
	if cfg.ProbeEvery == 0 {
		cfg.ProbeEvery = time.Second
	}
	if cfg.JoinWorkers == 0 {
		cfg.JoinWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	httpc := defaultHTTPClient()
	ring, err := NewRing(len(cfg.Peers), virtualNodes)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:    cfg,
		ring:   ring,
		peers:  make([]*peerClient, len(cfg.Peers)),
		inbox:  newInbox(),
		logger: cfg.Logger,
	}
	c.jobs.m = make(map[string]*jobEntry)
	for i, addr := range cfg.Peers {
		if i == cfg.Self {
			continue
		}
		c.peers[i] = &peerClient{
			addr:       addr,
			http:       httpc,
			rpcTimeout: cfg.RPCTimeout,
			hedgeDelay: cfg.HedgeDelay,
			probeEvery: cfg.ProbeEvery,
		}
	}
	return c, nil
}

// Self returns this peer's rank.
func (c *Cluster) Self() int { return c.cfg.Self }

// Size returns the number of peers.
func (c *Cluster) Size() int { return len(c.cfg.Peers) }

// Owner returns the peer that owns ranking id on the placement ring.
func (c *Cluster) Owner(id int64) int { return c.ring.Owner(id) }

// peer returns the outbound link to p; p must not be Self.
func (c *Cluster) peer(p int) *peerClient { return c.peers[p] }

// Status is the cluster section of /statusz.
type Status struct {
	Self       int          `json:"self"`
	Peers      []PeerStatus `json:"peers"`
	InboxDepth int          `json:"inbox_depth"`
	Joins      int64        `json:"joins_started"`
	Partials   int64        `json:"partial_responses"`
	FramesSent int64        `json:"shuffle_frames_sent"`
	BytesSent  int64        `json:"shuffle_bytes_sent"`
}

// StatusSnapshot assembles the current cluster view.
func (c *Cluster) StatusSnapshot() Status {
	st := Status{
		Self:       c.cfg.Self,
		Peers:      make([]PeerStatus, len(c.peers)),
		InboxDepth: c.inbox.depth(),
		Joins:      c.jobs.started.Load(),
		Partials:   c.partials.Load(),
		FramesSent: c.framesSent.Load(),
		BytesSent:  c.bytesSent.Load(),
	}
	for i, p := range c.peers {
		if p == nil {
			st.Peers[i] = PeerStatus{Addr: c.cfg.Peers[i], Self: true}
			continue
		}
		snap := p.latency.Snapshot()
		var lastErr string
		if m := p.lastErr.Load(); m != nil {
			lastErr = *m
		}
		st.Peers[i] = PeerStatus{
			Addr:      c.cfg.Peers[i],
			RPCs:      p.rpcs.Load(),
			Errors:    p.errors.Load(),
			Hedges:    p.hedges.Load(),
			P50us:     snap.Quantile(0.5),
			P99us:     snap.Quantile(0.99),
			Down:      p.down(),
			Fails:     p.fails.Load(),
			LastError: lastErr,
		}
	}
	return st
}

// PeerLatencySnapshots returns per-peer RPC latency histograms
// (microseconds), index-aligned with the peer list; the self entry is
// a zero snapshot. Used by the /metrics exposition.
func (c *Cluster) PeerLatencySnapshots() []obs.HistogramSnapshot {
	out := make([]obs.HistogramSnapshot, len(c.peers))
	for i, p := range c.peers {
		if p != nil {
			out[i] = p.latency.Snapshot()
		}
	}
	return out
}

// jobTable tracks distributed-join jobs on this peer. A job enters the
// table when its worker starts (locally via DistributedJoin, or via a
// /v1/cluster/join RPC from a coordinator) and stays as a completed
// entry for a while afterwards, so a hedged duplicate join-start
// returns the memoized outcome instead of running the join twice.
type jobTable struct {
	mu      sync.Mutex
	m       map[string]*jobEntry
	order   []string // completed jobs in finish order, oldest first
	started atomic.Int64
}

// keepCompletedJobs bounds the memoized-outcome window.
const keepCompletedJobs = 128

type jobEntry struct {
	done chan struct{}
	res  *rankjoin.Result // valid after done closes
	err  error            // valid after done closes
}

// begin registers job and reports whether this call owns it. When the
// job already exists (hedged duplicate), the existing entry is
// returned with owns=false and the caller should wait on entry.done.
func (t *jobTable) begin(job string) (entry *jobEntry, owns bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.m[job]; ok {
		return e, false
	}
	e := &jobEntry{done: make(chan struct{})}
	t.m[job] = e
	t.started.Add(1)
	return e, true
}

// finish records the job outcome and evicts the oldest completed
// entries past the retention bound.
func (t *jobTable) finish(job string, res *rankjoin.Result, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.m[job]
	if !ok {
		return
	}
	e.res, e.err = res, err
	close(e.done)
	t.order = append(t.order, job)
	for len(t.order) > keepCompletedJobs {
		delete(t.m, t.order[0])
		t.order = t.order[1:]
	}
}
