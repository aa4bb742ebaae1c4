// Package flow is an in-process, Spark-like dataflow engine: the
// substrate that stands in for Apache Spark in this reproduction.
//
// It models the pieces of Spark the paper's algorithms actually depend
// on:
//
//   - lazily evaluated, partitioned, immutable datasets (RDDs) with
//     pipelined narrow transformations (Map, FlatMap, Filter,
//     MapPartitions);
//   - wide transformations that exchange data through a hash-partitioned
//     shuffle (GroupByKey, ReduceByKey, Join, CoGroup, Distinct,
//     Repartition), with map-side combining where applicable;
//   - broadcast variables;
//   - caching of intermediate datasets for iterative, multi-stage
//     pipelines;
//   - a bounded executor pool (Config.Workers plays the role of
//     executors × cores, the knob behind the paper's Table 3 and the
//     Figure 7 scalability sweep);
//   - optional spill-to-disk of shuffle buckets, modelling Spark's
//     ability to degrade gracefully instead of holding every partition
//     in executor memory (§4.1);
//   - engine metrics (records shuffled, spilled, largest partition,
//     tasks run) so that experiments can observe skew and shuffle
//     volume, not just wall-clock time.
//
// The engine is deliberately deterministic given a fixed dataset: hash
// partitioning depends only on keys, so results are reproducible across
// worker counts and partition counts (property-tested).
package flow

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rankjoin/internal/obs"
)

// Config sizes the engine. The zero value is usable: it runs with
// GOMAXPROCS workers, 8 default partitions and no spilling.
type Config struct {
	// Workers bounds the number of concurrently executing tasks — the
	// analogue of total executor cores in Table 3 of the paper.
	Workers int
	// DefaultPartitions is the partition count used when a
	// transformation does not specify one — the analogue of
	// spark.default.parallelism.
	DefaultPartitions int
	// SpillDir, when non-empty, enables spilling of oversized shuffle
	// buckets to gob files under this directory.
	SpillDir string
	// SpillThreshold is the number of records a single shuffle bucket
	// may hold in memory before being spilled. Zero means 1<<16.
	SpillThreshold int
	// Exchange, when non-nil with a world size above one, runs the
	// context in distributed SPMD mode: shuffles go over the Exchanger
	// instead of process memory and actions become all-gathers. See
	// Exchanger for the execution model. Spilling is disabled for
	// distributed shuffle buckets.
	Exchange Exchanger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.DefaultPartitions <= 0 {
		c.DefaultPartitions = 8
	}
	if c.SpillThreshold <= 0 {
		c.SpillThreshold = 1 << 16
	}
	return c
}

// Context owns the executor pool, metrics and spill state for one
// logical "cluster". Datasets are bound to the context that created
// them.
type Context struct {
	cfg     Config
	metrics Metrics
	spill   *spillManager
	tracer  atomic.Pointer[obs.Tracer]

	// collective numbers every shuffle construction and action call in
	// driver order. In distributed mode the transport matches frames by
	// this id; see Exchanger.
	collective atomic.Int64
}

// NewContext builds a Context from cfg (see Config for defaults).
func NewContext(cfg Config) *Context {
	cfg = cfg.withDefaults()
	ctx := &Context{cfg: cfg}
	if cfg.SpillDir != "" {
		ctx.spill = newSpillManager(cfg.SpillDir, cfg.SpillThreshold, &ctx.metrics)
	}
	return ctx
}

// Config returns the (defaulted) configuration of the context.
func (c *Context) Config() Config { return c.cfg }

// SetTracer attaches a span tracer to the context; every subsequent
// shuffle, action and instrumented pipeline phase records spans on it.
// A nil tracer detaches tracing; with no tracer attached every
// instrumentation site reduces to a nil check.
func (c *Context) SetTracer(tr *obs.Tracer) { c.tracer.Store(tr) }

// Tracer returns the attached tracer, or nil when tracing is off.
func (c *Context) Tracer() *obs.Tracer { return c.tracer.Load() }

// Filters returns the context's filter-effectiveness counters. Kernels
// accumulate locally and fold one FilterDelta per invocation here.
func (c *Context) Filters() *obs.FilterCounters { return &c.metrics.Filters }

// Histogram returns the named engine histogram, creating it on first
// use. Names are conventionally slash-scoped ("shuffle/partition_records",
// "cl/cluster_members"); all registered histograms appear in
// MetricsSnapshot.Histograms.
func (c *Context) Histogram(name string) *obs.Histogram { return c.metrics.histogram(name) }

// world returns this context's rank and world size; a context without
// an Exchanger is the sole member of a world of one.
func (c *Context) world() (self, size int) {
	if c.cfg.Exchange == nil {
		return 0, 1
	}
	return c.cfg.Exchange.World()
}

// distributed reports whether shuffles and actions go over the wire.
// A one-worker world runs the plain in-process engine even with an
// Exchanger attached.
func (c *Context) distributed() bool {
	_, size := c.world()
	return size > 1
}

// nextCollective assigns the next collective id. Called only from the
// driver goroutine (dataset construction and actions), so the sequence
// is identical on every SPMD worker.
func (c *Context) nextCollective() int64 { return c.collective.Add(1) }

// Close releases spill files, if any. Safe to call on contexts without
// spilling.
func (c *Context) Close() error {
	if c.spill != nil {
		return c.spill.close()
	}
	return nil
}

// parallelDo executes fn(0..n-1) on the executor pool and returns the
// first error. Once any task fails, idle workers stop claiming new
// task indices, so a failing partition short-circuits a wide stage
// instead of running it to completion (tasks already in flight still
// finish). Nested invocations (a shuffle materializing its parent
// while the child stage is already running) each get their own bounded
// goroutine set, so the engine never deadlocks on pool slots; only one
// nesting level does real work at a time because sibling tasks block on
// the shuffle's sync.Once.
func (c *Context) parallelDo(n int, fn func(i int) error) error {
	if n == 0 {
		return nil
	}
	workers := c.cfg.Workers
	if workers > n {
		workers = n
	}
	var (
		wg   sync.WaitGroup
		next atomic.Int64
		err  atomic.Value
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for err.Load() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				c.metrics.Tasks.Add(1)
				if e := fn(i); e != nil {
					err.CompareAndSwap(nil, e)
					return
				}
			}
		}()
	}
	wg.Wait()
	if e := err.Load(); e != nil {
		return e.(error)
	}
	return nil
}

// tracedDo is parallelDo wrapped in spans: one task span for the whole
// action plus a child task span per partition. With no tracer attached
// it is exactly parallelDo — the nil check is the entire overhead.
func (c *Context) tracedDo(name string, n int, fn func(i int) error) error {
	tr := c.Tracer()
	if tr == nil {
		return c.parallelDo(n, fn)
	}
	sp := tr.StartTask(name, obs.Int("partitions", int64(n)))
	defer sp.End()
	return c.parallelDo(n, func(i int) error {
		tsp := sp.StartTask(name+".task", obs.Int("partition", int64(i)))
		defer tsp.End()
		return fn(i)
	})
}

// Metrics aggregates engine-level counters across all stages executed
// on a context. Counters are cumulative; use Snapshot to read them and
// Reset to start a fresh measurement window.
type Metrics struct {
	// Tasks counts executed partition tasks.
	Tasks atomic.Int64
	// ShuffleRecords counts records moved across a shuffle boundary.
	ShuffleRecords atomic.Int64
	// SpilledRecords counts records written to spill files.
	SpilledRecords atomic.Int64
	// BroadcastValues counts broadcast variables created.
	BroadcastValues atomic.Int64
	// MaxPartitionRecords tracks the largest materialized shuffle
	// partition seen — the skew signal the repartitioning technique of
	// §6 reacts to.
	MaxPartitionRecords atomic.Int64
	// ShuffleNanos accumulates wall-clock nanoseconds spent
	// materializing shuffle exchanges (scatter plan, fused copy and
	// spill), the engine's dominant fixed cost.
	ShuffleNanos atomic.Int64
	// Filters aggregates the filter-effectiveness counters folded in by
	// the join kernels through Context.Filters.
	Filters obs.FilterCounters

	// stageNanos accumulates wall-clock per named pipeline stage,
	// recorded by Context.ObserveStage.
	stageMu    sync.Mutex
	stageNanos map[string]int64

	// hists holds the named skew histograms (shuffle partition sizes,
	// posting-list lengths, cluster sizes), created on first use.
	histMu sync.RWMutex
	hists  map[string]*obs.Histogram
}

// histogram returns the named histogram, creating it on first use.
// Lookup is a read-lock in the steady state.
func (m *Metrics) histogram(name string) *obs.Histogram {
	m.histMu.RLock()
	h := m.hists[name]
	m.histMu.RUnlock()
	if h != nil {
		return h
	}
	m.histMu.Lock()
	defer m.histMu.Unlock()
	if h = m.hists[name]; h == nil {
		if m.hists == nil {
			m.hists = make(map[string]*obs.Histogram)
		}
		h = &obs.Histogram{}
		m.hists[name] = h
	}
	return h
}

func (m *Metrics) observePartitionSize(n int64) {
	for {
		cur := m.MaxPartitionRecords.Load()
		if n <= cur || m.MaxPartitionRecords.CompareAndSwap(cur, n) {
			return
		}
	}
}

// ObserveStage adds wall-clock time under a named pipeline stage.
// Pipelines use it to attribute engine time to their logical phases
// (e.g. "cl/clustering"), surfaced through MetricsSnapshot.Stages.
func (c *Context) ObserveStage(name string, d time.Duration) {
	m := &c.metrics
	m.stageMu.Lock()
	if m.stageNanos == nil {
		m.stageNanos = make(map[string]int64)
	}
	m.stageNanos[name] += int64(d)
	m.stageMu.Unlock()
}

// MetricsSnapshot is a plain-value copy of Metrics.
type MetricsSnapshot struct {
	Tasks               int64
	ShuffleRecords      int64
	SpilledRecords      int64
	BroadcastValues     int64
	MaxPartitionRecords int64
	// ShuffleTime is the wall-clock spent materializing shuffle
	// exchanges.
	ShuffleTime time.Duration
	// Filters is the filter-effectiveness tally of the run; see
	// obs.FilterDelta for the conservation law the fields obey.
	Filters obs.FilterDelta
	// Stages maps pipeline stage names to accumulated wall-clock time
	// recorded via ObserveStage. Nil when no stage was observed.
	Stages map[string]time.Duration
	// Histograms maps engine histogram names (e.g.
	// "shuffle/partition_records") to their snapshots. Nil when nothing
	// was observed.
	Histograms map[string]obs.HistogramSnapshot
}

// Snapshot returns the current counter values.
func (c *Context) Snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		Tasks:               c.metrics.Tasks.Load(),
		ShuffleRecords:      c.metrics.ShuffleRecords.Load(),
		SpilledRecords:      c.metrics.SpilledRecords.Load(),
		BroadcastValues:     c.metrics.BroadcastValues.Load(),
		MaxPartitionRecords: c.metrics.MaxPartitionRecords.Load(),
		ShuffleTime:         time.Duration(c.metrics.ShuffleNanos.Load()),
		Filters:             c.metrics.Filters.Snapshot(),
	}
	c.metrics.histMu.RLock()
	if len(c.metrics.hists) > 0 {
		s.Histograms = make(map[string]obs.HistogramSnapshot, len(c.metrics.hists))
		for name, h := range c.metrics.hists {
			s.Histograms[name] = h.Snapshot()
		}
	}
	c.metrics.histMu.RUnlock()
	c.metrics.stageMu.Lock()
	if len(c.metrics.stageNanos) > 0 {
		s.Stages = make(map[string]time.Duration, len(c.metrics.stageNanos))
		for name, ns := range c.metrics.stageNanos {
			s.Stages[name] = time.Duration(ns)
		}
	}
	c.metrics.stageMu.Unlock()
	return s
}

// ResetMetrics zeroes all counters.
func (c *Context) ResetMetrics() {
	c.metrics.Tasks.Store(0)
	c.metrics.ShuffleRecords.Store(0)
	c.metrics.SpilledRecords.Store(0)
	c.metrics.BroadcastValues.Store(0)
	c.metrics.MaxPartitionRecords.Store(0)
	c.metrics.ShuffleNanos.Store(0)
	c.metrics.Filters.Reset()
	c.metrics.stageMu.Lock()
	c.metrics.stageNanos = nil
	c.metrics.stageMu.Unlock()
	c.metrics.histMu.Lock()
	c.metrics.hists = nil
	c.metrics.histMu.Unlock()
}

func (s MetricsSnapshot) String() string {
	msg := fmt.Sprintf("tasks=%d shuffled=%d spilled=%d broadcasts=%d maxPartition=%d shuffleTime=%v",
		s.Tasks, s.ShuffleRecords, s.SpilledRecords, s.BroadcastValues, s.MaxPartitionRecords, s.ShuffleTime)
	if !s.Filters.IsZero() {
		msg += fmt.Sprintf(" filters[%s]", s.Filters)
	}
	if len(s.Stages) > 0 {
		names := make([]string, 0, len(s.Stages))
		for name := range s.Stages {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			msg += fmt.Sprintf(" %s=%v", name, s.Stages[name])
		}
	}
	if len(s.Histograms) > 0 {
		names := make([]string, 0, len(s.Histograms))
		for name := range s.Histograms {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			msg += fmt.Sprintf(" hist[%s]={%s}", name, s.Histograms[name])
		}
	}
	return msg
}
