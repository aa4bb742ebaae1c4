// Package clean is idiomatic code touching every invariant the
// ranklint analyzers guard — spans, locks, map iteration, sentinel
// errors, hedging tiers, write hooks, contexts and metric registration
// — with zero violations. Every analyzer must stay silent here.
package clean

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

var ErrNotFound = errors.New("clean: not found")

type Span struct{ name string }

func (s *Span) End() {}

type Tracer struct{}

func (t *Tracer) StartScope(name string) *Span { return &Span{name: name} }

type Shard struct {
	mu    sync.RWMutex
	items map[int64]int
}

func (s *Shard) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.items)
}

func (s *Shard) Insert(k int64, v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.items[k] = v
}

func (s *Shard) Get(k int64) (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.items[k]
	if !ok {
		return 0, fmt.Errorf("get %d: %w", k, ErrNotFound)
	}
	return v, nil
}

func (s *Shard) Keys() []int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := make([]int64, 0, len(s.items))
	for k := range s.items {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func traced(tr *Tracer, s *Shard, fail bool) error {
	sp := tr.StartScope("traced")
	defer sp.End()
	if fail {
		return fmt.Errorf("traced: %w", ErrNotFound)
	}
	s.Insert(1, 1)
	return nil
}

// --- nohedge: reads may hedge, mutations go through the once tier ---

type peer struct{}

func (p *peer) do(ctx context.Context, path string) error       { return ctx.Err() }
func (p *peer) doMutate(ctx context.Context, path string) error { return ctx.Err() }

// clusterInsert is a mutation root by name: it stays on doMutate.
func clusterInsert(ctx context.Context, p *peer) error {
	return p.doMutate(ctx, "/v1/cluster/insert")
}

// searchPeer is a read path and may use the hedged tier.
func searchPeer(ctx context.Context, p *peer) error {
	return p.do(ctx, "/v1/search")
}

// --- walack: the two-phase write hook, used correctly ---

type rec struct{ id int64 }

type writeHook func(rec) func() error

type index struct {
	mu   sync.Mutex
	hook writeHook
}

func (x *index) SetWriteHook(h writeHook) { x.hook = h }

func (x *index) logLocked(r rec) func() error {
	if x.hook == nil {
		return nil
	}
	return x.hook(r)
}

type walFile struct{ n atomic.Int64 }

func (w *walFile) buffer(r rec) int64 { return w.n.Add(1) }
func (w *walFile) sync(lsn int64) error {
	if lsn < 0 {
		return ErrNotFound
	}
	return nil
}

// attach wires the hook: append in phase one, fsync only in the
// returned commit closure.
func attach(x *index, w *walFile) {
	x.SetWriteHook(func(r rec) func() error {
		lsn := w.buffer(r)
		return func() error { return w.sync(lsn) }
	})
}

// insert logs under the lock and runs the barrier after unlock, before
// acking.
func (x *index) insert(r rec) error {
	x.mu.Lock()
	commit := x.logLocked(r)
	x.mu.Unlock()
	if commit != nil {
		return commit()
	}
	return nil
}

// --- ctxflow: contexts are threaded, roots live in constructors ---

type poller struct {
	root   context.Context
	cancel context.CancelFunc
}

func newPoller() *poller {
	p := &poller{}
	p.root, p.cancel = context.WithCancel(context.Background())
	return p
}

func (p *poller) close() { p.cancel() }

func (p *poller) tick(pr *peer) error {
	ctx, cancel := context.WithTimeout(p.root, time.Second)
	defer cancel()
	return pr.do(ctx, "/v1/wal/pull")
}

// --- metricreg: every written series declared exactly once ---

type stats struct {
	served atomic.Int64
	window int64 // guarded by wmu
	wmu    sync.Mutex
}

func (s *stats) hit() { s.served.Add(1) }

func (s *stats) snapshot() (int64, int64) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return s.served.Load(), s.window
}

type MetricWriter struct{ err error }

func (m *MetricWriter) Metric(name, typ, help string) {}
func (m *MetricWriter) Value(name string, v float64)  {}
func (m *MetricWriter) Int(name string, v int64)      {}

func writeMetrics(m *MetricWriter, s *stats) {
	m.Metric("clean_served_total", "counter", "Requests served.")
	served, _ := s.snapshot()
	m.Int("clean_served_total", served)

	m.Metric("clean_window_seconds", "gauge", "Window length.")
	m.Value("clean_window_seconds", 60)
}
