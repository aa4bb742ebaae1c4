package rankjoin

import (
	"fmt"

	"rankjoin/internal/obs"
	"rankjoin/internal/rankings"
	"rankjoin/internal/vj"
)

// JoinRS finds all pairs (r ∈ R, s ∈ S) of rankings from two datasets
// within normalized Footrule distance theta — the R-S counterpart of
// the self-join (e.g. matching this week's user rankings against last
// week's). The two datasets have independent id spaces: in each result
// pair, A is the R-side id and B the S-side id, and pairs are sorted by
// (A, B).
//
// Not every algorithm defines an R-S join: the CL family's clustering
// pipeline and the related-work baselines are self-join constructions.
// Options.Algorithm therefore selects among:
//
//   - AlgCL (the zero value): the default — the prefix-filtered
//     iterator pipeline, i.e. the same execution as AlgVJNL;
//   - AlgVJ / AlgVJNL: the prefix-filtered pipeline (both run the
//     iterator kernel — there is no per-partition index to build for a
//     cross join, so the two requests execute identically);
//   - AlgBruteForce: the quadratic R×S scan, for oracles and testing.
//
// Anything else returns ErrSelfJoinOnly. Result.Algorithm always
// reports the algorithm actually executed (AlgVJNL for the pipeline,
// AlgBruteForce for the scan) — never an algorithm that did not run.
//
// All rankings of both datasets must share one length k
// (ErrMixedLengths) and ids must be unique within each dataset
// (ErrDuplicateID); the same id on both sides is fine — the id spaces
// are independent.
func (e *Engine) JoinRS(r, s []*Ranking, opts Options) (*Result, error) {
	if !rankings.ThetaInRange(opts.Theta) {
		return nil, fmt.Errorf("%w: got %v", ErrThetaRange, opts.Theta)
	}
	all := make([]*Ranking, 0, len(r)+len(s))
	all = append(all, r...)
	all = append(all, s...)
	if _, err := rankings.UniformK(all); err != nil {
		return nil, err
	}
	if err := checkUniqueIDs(r); err != nil {
		return nil, fmt.Errorf("R side: %w", err)
	}
	if err := checkUniqueIDs(s); err != nil {
		return nil, fmt.Errorf("S side: %w", err)
	}

	executed := AlgVJNL
	switch opts.Algorithm {
	case AlgCL, AlgVJ, AlgVJNL:
		// The prefix-filtered pipeline below; AlgCL is accepted as the
		// package-wide default ("use the recommended algorithm"), not as
		// a request for the clustering pipeline.
	case AlgBruteForce:
		executed = AlgBruteForce
	case AlgCLP, AlgVSMART, AlgClusterJoin, AlgFSJoin:
		return nil, fmt.Errorf("%w: %v", ErrSelfJoinOnly, opts.Algorithm)
	default:
		return nil, fmt.Errorf("rankjoin: unknown algorithm %v", opts.Algorithm)
	}

	e.ctx.ResetMetrics()
	var pairs []Pair
	var err error
	var st *vj.Stats
	if executed == AlgBruteForce {
		pairs = bruteForceRS(e, r, s, opts.Theta)
	} else {
		if opts.Stats {
			st = &vj.Stats{}
		}
		pairs, err = vj.JoinRS(e.ctx, r, s, vj.Options{
			Theta:      opts.Theta,
			Partitions: opts.Partitions,
			Delta:      opts.Delta,
			Stats:      st,
		})
		if err != nil {
			return nil, err
		}
	}
	res := &Result{Pairs: pairs, Algorithm: executed, Engine: e.ctx.Snapshot()}
	res.Filters = res.Engine.Filters
	if st != nil {
		snap := st.Snapshot()
		res.Kernel = &snap
	}
	return res, nil
}

// bruteForceRS verifies every (r, s) combination — the R-S oracle.
func bruteForceRS(e *Engine, r, s []*Ranking, theta float64) []Pair {
	if len(r) == 0 || len(s) == 0 {
		return nil
	}
	maxDist := rankings.Threshold(theta, r[0].K())
	var d obs.FilterDelta
	var pairs []Pair
	for _, a := range r {
		for _, b := range s {
			d.Generated++
			d.Verified++
			if dist, ok := rankings.FootruleWithin(a, b, maxDist); ok {
				d.Emitted++
				pairs = append(pairs, Pair{A: a.ID, B: b.ID, Dist: dist})
			}
		}
	}
	e.ctx.Filters().Add(d)
	rankings.SortPairs(pairs)
	return pairs
}

// JoinRS runs an R-S join on a fresh default engine; see Engine.JoinRS.
func JoinRS(r, s []*Ranking, opts Options) (*Result, error) {
	e := NewEngine(EngineConfig{})
	defer e.Close()
	return e.JoinRS(r, s, opts)
}
