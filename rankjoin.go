// Package rankjoin is a library for similarity joins over top-k
// rankings under Spearman's Footrule distance, reproducing
// "Distributed Similarity Joins over Top-K Rankings" (Milchevski &
// Michel, EDBT 2020).
//
// Given a dataset of fixed-length top-k rankings and a normalized
// distance threshold θ ∈ [0, 1], a join returns every pair of rankings
// whose top-k Footrule distance (Fagin et al.) is at most θ. The
// paper's four algorithms are available, plus the §2 baselines:
//
//   - VJ: the Vernica-Join prefix-filtering adaptation (§4);
//   - VJ-NL: its iterator/nested-loop per-partition variant (§4.1);
//   - CL: the paper's contribution — a four-phase metric-space pipeline
//     (Ordering, Clustering at θc, Centroid Join at θ+2θc, Expansion);
//   - CL-P: CL plus repartitioning of oversized posting lists (§6);
//   - V-SMART, ClusterJoin, FS-Join: related-work baselines (§2).
//
// Companion operations: JoinRS (join two datasets against each other),
// JoinSets (Jaccard set-similarity join, the paper's §8 outlook), and
// BuildIndex/Index.Search (single-query similarity range search).
//
// All algorithms run on an embedded Spark-like dataflow engine with
// hash-partitioned in-memory shuffles, broadcast variables and a
// bounded worker pool; Engine configuration corresponds to the Spark
// parameters of the paper's Table 3.
//
// Quick start:
//
//	rs := []*rankjoin.Ranking{ ... }
//	res, err := rankjoin.Join(rs, rankjoin.Options{Algorithm: rankjoin.AlgCL, Theta: 0.2})
//	for _, p := range res.Pairs { ... }
package rankjoin

import (
	"errors"
	"fmt"
	"io"
	"time"

	"rankjoin/internal/clusterjoin"
	"rankjoin/internal/core"
	"rankjoin/internal/flow"
	"rankjoin/internal/fsjoin"
	"rankjoin/internal/obs"
	"rankjoin/internal/ppjoin"
	"rankjoin/internal/rankings"
	"rankjoin/internal/vj"
	"rankjoin/internal/vsmart"
)

// Ranking is a fixed-length top-k list; see NewRanking.
type Ranking = rankings.Ranking

// Item identifies a ranked entity.
type Item = rankings.Item

// Pair is one join result: ranking ids in canonical order (A < B) and
// their unnormalized Footrule distance (see Footrule; divide by
// MaxDistance(k) to normalize).
type Pair = rankings.Pair

// NewRanking builds a validated ranking from an id and its items, best
// ranked first.
func NewRanking(id int64, items []Item) (*Ranking, error) {
	r, err := rankings.New(id, items)
	if err != nil {
		return nil, err
	}
	r.Index()
	return r, nil
}

// ReadRankings parses a dataset in the text format (one ranking per
// line: optionally "id:" followed by whitespace- or comma-separated
// item ids, best first).
func ReadRankings(r io.Reader) ([]*Ranking, error) {
	rs, err := rankings.Read(r)
	if err != nil {
		return nil, err
	}
	rankings.IndexAll(rs)
	return rs, nil
}

// WriteRankings serializes a dataset in the format ReadRankings
// accepts.
func WriteRankings(w io.Writer, rs []*Ranking) error { return rankings.Write(w, rs) }

// Footrule returns the unnormalized top-k Footrule distance between
// two rankings of equal length k: the sum over all items of the rank
// difference, with missing items at the artificial rank k. Range:
// [0, k·(k+1)].
func Footrule(a, b *Ranking) int { return rankings.Footrule(a, b) }

// FootruleNorm returns the Footrule distance normalized to [0, 1].
func FootruleNorm(a, b *Ranking) float64 { return rankings.FootruleNorm(a, b) }

// MaxDistance returns the largest possible Footrule distance between
// two top-k rankings: k·(k+1).
func MaxDistance(k int) int { return rankings.MaxFootrule(k) }

// Algorithm selects a join algorithm.
type Algorithm int

const (
	// AlgCL is the paper's clustering pipeline — the default and the
	// recommended choice for θ ≥ 0.2 or large datasets.
	AlgCL Algorithm = iota
	// AlgCLP is CL with repartitioning of oversized posting lists
	// (§6) at threshold Options.Delta. With Delta 0 the join plans δ
	// itself, by Equation 4 from its ordering phase's item counts —
	// the value SuggestDelta returns.
	AlgCLP
	// AlgVJ is the prefix-filtering Vernica Join with per-partition
	// inverted indexes.
	AlgVJ
	// AlgVJNL is VJ with iterator-style nested-loop partitions.
	AlgVJNL
	// AlgBruteForce verifies every pair; for small inputs and testing.
	AlgBruteForce
	// AlgVSMART is the V-SMART baseline (Metwally & Faloutsos, §2 of
	// the paper) adapted to Footrule: per-item distance ingredients
	// aggregated by pair key. Quadratic in posting-list length — kept
	// for comparison experiments.
	AlgVSMART
	// AlgClusterJoin is the anchor-based metric-space baseline
	// (ClusterJoin / Wang et al., §2): random anchors,
	// triangle-window replication, per-partition verification.
	AlgClusterJoin
	// AlgFSJoin is the FS-Join baseline (Rong et al., §2): vertical
	// segment partitioning of the canonical token order,
	// duplicate-free by construction.
	AlgFSJoin
)

func (a Algorithm) String() string {
	switch a {
	case AlgCL:
		return "CL"
	case AlgCLP:
		return "CL-P"
	case AlgVJ:
		return "VJ"
	case AlgVJNL:
		return "VJ-NL"
	case AlgBruteForce:
		return "BruteForce"
	case AlgVSMART:
		return "V-SMART"
	case AlgClusterJoin:
		return "ClusterJoin"
	case AlgFSJoin:
		return "FS-Join"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Options configures a join.
type Options struct {
	// Algorithm defaults to AlgCL.
	Algorithm Algorithm
	// Theta is the normalized distance threshold θ ∈ [0, 1].
	Theta float64
	// ThetaC is the clustering threshold for CL/CL-P; 0 means the
	// paper's recommended 0.03.
	ThetaC float64
	// Delta is the repartitioning threshold δ for CL-P (and, if set
	// with VJ variants, splits their posting lists too). Zero with
	// AlgCLP means auto: see AlgCLP.
	Delta int
	// Partitions is the shuffle partition count; 0 picks the engine
	// default.
	Partitions int
	// Stats, when true, collects per-phase statistics into
	// Result.CL / Result.Kernel.
	Stats bool
}

// Result carries the join output and optional accounting.
type Result struct {
	// Pairs is the deduplicated result set, sorted by (A, B).
	Pairs []Pair
	// Algorithm echoes the algorithm that produced the result.
	Algorithm Algorithm
	// CL holds the per-phase statistics of a CL/CL-P run when
	// Options.Stats was set (nil otherwise).
	CL *core.Stats
	// Kernel holds the kernel statistics of a VJ/VJ-NL run when
	// Options.Stats was set (nil otherwise).
	Kernel *vj.StatsSnapshot
	// Filters is the filter-effectiveness tally of the run: candidates
	// generated and their fates (pruned by prefix, item signature,
	// position or triangle inequality, accepted unverified, verified).
	// Always collected; the counts obey Generated == PrunedPrefix +
	// PrunedSignature + PrunedPosition + PrunedTriangle +
	// AcceptedUnverified + Verified.
	Filters FilterStats
	// Engine is a snapshot of the engine counters accumulated by this
	// run (shuffled records, tasks, largest partition, skew
	// histograms).
	Engine flow.MetricsSnapshot
}

// FilterStats reports filter effectiveness; see Result.Filters.
type FilterStats = obs.FilterDelta

// Tracer records hierarchical spans (pipeline phases, shuffles,
// partition tasks) of the joins run on an engine it is attached to.
// Export with WriteChromeTrace (load the file in Perfetto or
// chrome://tracing) or render with Tree. See Engine.SetTracer.
type Tracer = obs.Tracer

// NewTracer creates an empty trace whose clock starts now.
func NewTracer() *Tracer { return obs.NewTracer() }

// EngineConfig sizes the embedded dataflow engine — the analogue of the
// paper's Table 3 Spark parameters.
type EngineConfig struct {
	// Workers bounds concurrently executing tasks (executors × cores).
	// 0 uses GOMAXPROCS.
	Workers int
	// DefaultPartitions is used when Options.Partitions is 0.
	DefaultPartitions int
	// Exchange, when non-nil with a world size above one, runs every
	// Join on this engine in distributed SPMD mode: all workers in the
	// exchanger's world must run the identical Join call on the
	// identical input, shuffles go over the wire, and every worker
	// returns the identical Result. internal/cluster provides the
	// HTTP transport implementation; see flow.Exchanger for the
	// contract.
	Exchange flow.Exchanger
}

// Engine is a reusable execution context. The zero-cost way to run a
// single join is the package-level Join, which creates a default
// engine per call.
type Engine struct {
	ctx *flow.Context
}

// NewEngine builds an engine from cfg.
func NewEngine(cfg EngineConfig) *Engine {
	return &Engine{ctx: flow.NewContext(flow.Config{
		Workers:           cfg.Workers,
		DefaultPartitions: cfg.DefaultPartitions,
		Exchange:          cfg.Exchange,
	})}
}

// Close releases nothing: an engine holds only memory. It is kept so
// callers that close their engines compile.
func (e *Engine) Close() error { return nil }

// SetTracer attaches tr to the engine: every subsequent Join records
// phase, shuffle and task spans on it. Pass nil to detach. With no
// tracer attached the instrumentation is free (a nil check per site).
func (e *Engine) SetTracer(tr *Tracer) { e.ctx.SetTracer(tr) }

// Join runs a similarity join on this engine.
//
// The input must be well formed: all rankings the same length k
// (ErrMixedLengths otherwise — Footrule thresholds are only comparable
// between rankings of equal k) and ids unique (ErrDuplicateID —
// algorithms key intermediate state by id, and before this check the
// execution paths disagreed on what a colliding id meant).
func (e *Engine) Join(rs []*Ranking, opts Options) (*Result, error) {
	if !rankings.ThetaInRange(opts.Theta) {
		return nil, fmt.Errorf("%w: got %v", ErrThetaRange, opts.Theta)
	}
	if _, err := rankings.UniformK(rs); err != nil {
		return nil, err
	}
	if err := checkUniqueIDs(rs); err != nil {
		return nil, err
	}
	e.ctx.ResetMetrics()
	res := &Result{Algorithm: opts.Algorithm}
	start := time.Now()
	rootSpan := e.ctx.Tracer().StartScope("join/"+opts.Algorithm.String(),
		obs.Int("rankings", int64(len(rs))))
	defer rootSpan.End() // idempotent; closes the scope on error returns
	var pairs []Pair
	var err error
	switch opts.Algorithm {
	case AlgBruteForce:
		if len(rs) > 0 {
			maxDist := rankings.Threshold(opts.Theta, rs[0].K())
			var d obs.FilterDelta
			pairs = ppjoin.BruteForce(rs, maxDist, &d)
			e.ctx.Filters().Add(d)
		}
	case AlgVJ, AlgVJNL:
		variant := vj.IndexJoin
		if opts.Algorithm == AlgVJNL {
			variant = vj.NestedLoop
		}
		var st *vj.Stats
		if opts.Stats {
			st = &vj.Stats{}
		}
		pairs, err = vj.Join(e.ctx, rs, vj.Options{
			Theta:      opts.Theta,
			Variant:    variant,
			Partitions: opts.Partitions,
			Delta:      opts.Delta,
			Stats:      st,
		})
		if err != nil {
			return nil, err
		}
		if st != nil {
			snap := st.Snapshot()
			res.Kernel = &snap
		}
	case AlgVSMART:
		pairs, err = vsmart.Join(e.ctx, rs, vsmart.Options{
			Theta:      opts.Theta,
			Partitions: opts.Partitions,
		})
		if err != nil {
			return nil, err
		}
	case AlgClusterJoin:
		pairs, _, err = clusterjoin.Join(e.ctx, rs, clusterjoin.Options{
			Theta:      opts.Theta,
			Partitions: opts.Partitions,
			Seed:       1,
		})
		if err != nil {
			return nil, err
		}
	case AlgFSJoin:
		pairs, err = fsjoin.Join(e.ctx, rs, fsjoin.Options{
			Theta:      opts.Theta,
			Partitions: opts.Partitions,
		})
		if err != nil {
			return nil, err
		}
	case AlgCL, AlgCLP:
		delta := 0
		if opts.Algorithm == AlgCLP {
			delta = opts.Delta
			if delta <= 0 {
				delta = core.AutoDelta
			}
		}
		var st *core.Stats
		if opts.Stats {
			st = &core.Stats{}
		}
		pairs, err = core.Join(e.ctx, rs, core.Options{
			Theta:      opts.Theta,
			ThetaC:     opts.ThetaC,
			Partitions: opts.Partitions,
			Delta:      delta,
			Stats:      st,
		})
		if err != nil {
			return nil, err
		}
		res.CL = st
	default:
		return nil, fmt.Errorf("rankjoin: unknown algorithm %v", opts.Algorithm)
	}
	rootSpan.End()
	e.ctx.ObserveStage("join/"+opts.Algorithm.String(), time.Since(start))
	dedupStart := time.Now()
	dedupSpan := e.ctx.Tracer().StartScope("join/dedup")
	res.Pairs = rankings.DedupPairs(pairs)
	dedupSpan.End()
	e.ctx.ObserveStage("join/dedup", time.Since(dedupStart))
	res.Engine = e.ctx.Snapshot()
	res.Filters = res.Engine.Filters
	return res, nil
}

// Join runs a similarity join on a fresh default engine.
func Join(rs []*Ranking, opts Options) (*Result, error) {
	return NewEngine(EngineConfig{}).Join(rs, opts)
}

// Errors reported by the join entry points. All joins, SuggestDelta and
// BuildIndex validate their input once at the public boundary so that
// every execution path agrees on what malformed input means (before
// this, CL rejected duplicate ids while VJ silently skipped them, and a
// mixed-length dataset fed SuggestDelta a nonsense k).
var (
	// ErrMixedLengths reports a dataset mixing ranking lengths. The
	// Footrule threshold θ·k(k+1) is only meaningful for a single k.
	ErrMixedLengths = rankings.ErrMixedLengths

	// ErrDuplicateID reports two rankings in one dataset sharing an id.
	ErrDuplicateID = errors.New("rankjoin: duplicate ranking id in dataset")

	// ErrSelfJoinOnly reports an Options.Algorithm that only defines a
	// self-join (the CL family's clustering construction and the
	// related-work baselines) being requested for an R-S join.
	ErrSelfJoinOnly = errors.New("rankjoin: algorithm joins a dataset with itself only")
)

func checkUniqueIDs(rs []*Ranking) error {
	seen := make(map[int64]struct{}, len(rs))
	for _, r := range rs {
		if _, dup := seen[r.ID]; dup {
			return fmt.Errorf("%w: id %d", ErrDuplicateID, r.ID)
		}
		seen[r.ID] = struct{}{}
	}
	return nil
}
