package core

import (
	"fmt"
	"slices"
	"time"

	"rankjoin/internal/filters"
	"rankjoin/internal/flow"
	"rankjoin/internal/obs"
	"rankjoin/internal/rankings"
	"rankjoin/internal/stats"
	"rankjoin/internal/vj"
)

// AutoDelta as Options.Delta (any negative value does the same) makes
// the join CL-P with δ planned by the ordering phase — stats.PlanDelta
// over the item counts it just gathered — instead of supplied by the
// caller.
const AutoDelta = -1

// Options configures a CL / CL-P join.
type Options struct {
	// Theta is the normalized join threshold θ ∈ [0, 1].
	Theta float64
	// ThetaC is the normalized clustering threshold θc. The paper's
	// recommendation (and our default when zero) is 0.03; values below
	// 0.05 are advised.
	ThetaC float64
	// Partitions is the shuffle partition count (0 = context default).
	Partitions int
	// Delta is the §6 repartitioning threshold δ applied to the
	// centroid-joining phase. Zero disables repartitioning: the
	// algorithm is then plain CL; a positive value makes it CL-P;
	// AutoDelta makes it CL-P with a planned δ.
	Delta int
	// UniformJoinThreshold disables the Lemma 5.3 refinement and holds
	// every centroid pair to θ+2θc — the ablation for Algorithm 1.
	UniformJoinThreshold bool
	// NoTriangleFilter disables the expansion phase's
	// triangle-inequality pruning — every candidate is verified. Kept
	// as an ablation of §5.3.
	NoTriangleFilter bool
	// UnverifiedPartials emits pairs whose distance is certified ≤ θ
	// by the triangle inequality without computing it, exactly as the
	// paper writes same-cluster members to disk unverified when
	// 2θc ≤ θ. Such pairs carry Dist == -1. Off by default so that the
	// output always contains exact distances.
	UnverifiedPartials bool
	// Stats, when non-nil, receives per-phase accounting.
	Stats *Stats
}

func (o Options) withDefaults() Options {
	if o.ThetaC == 0 {
		o.ThetaC = 0.03
	}
	return o
}

func (o Options) validate(rs []*rankings.Ranking) (k int, err error) {
	if !rankings.ThetaInRange(o.Theta) {
		return 0, fmt.Errorf("core: theta %v out of [0,1]", o.Theta)
	}
	if !rankings.ThetaInRange(o.ThetaC) {
		return 0, fmt.Errorf("core: thetaC %v out of [0,1]", o.ThetaC)
	}
	if k, err = rankings.UniformK(rs); err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	return k, nil
}

// Member records one cluster member: its ranking id and its exact
// distance to the cluster centroid (known from the clustering phase and
// exploited by the expansion phase's triangle filters).
type Member struct {
	ID   int64
	Dist int
}

// Join runs the full CL (or CL-P when Delta != 0) pipeline of Figure 2:
//
//	Ordering   — one global frequency ordering, computed once, and
//	             every ranking renumbered by it (and, for AutoDelta,
//	             δ planned from the same counts);
//	Clustering — a VJ run at θc; pairs grouped by their smaller id form
//	             equal-radius clusters (centroid = smaller id);
//	Joining    — a VJ-style run over C = Cm ∪ Cs at θ+2θc, tightened
//	             per pair type by Lemma 5.3 (Algorithm 1);
//	Expansion  — joining-phase results are joined back with the
//	             clusters and candidates are pruned with the triangle
//	             inequality before verification (Algorithm 2).
//
// The result is the exact set of pairs within θ (deduplicated); with
// UnverifiedPartials some pairs carry Dist == -1 (within θ by triangle
// certificate, distance not computed).
func Join(ctx *flow.Context, rs []*rankings.Ranking, opts Options) ([]rankings.Pair, error) {
	opts = opts.withDefaults()
	k, err := opts.validate(rs)
	if err != nil {
		return nil, err
	}
	if len(rs) == 0 {
		return nil, nil
	}
	t := newThresholds(opts.Theta, opts.ThetaC, k)

	byID := make(map[int64]*rankings.Ranking, len(rs))
	for _, r := range rs {
		if dup, exists := byID[r.ID]; exists {
			return nil, fmt.Errorf("core: duplicate ranking id %d (%v vs %v)", r.ID, dup, r)
		}
		byID[r.ID] = r
	}

	// The four phases of Figure 2 run sequentially on the driver; each
	// one is a tracer scope, so shuffles and tasks it forces nest under
	// it in the exported trace. All span calls no-op without a tracer.
	tr := ctx.Tracer()

	// Phase 1: Ordering — one canonical frequency order for both VJ
	// runs (§5 "Ordering"), applied once: every later phase, the
	// expansion's dictionary included, sees the renumbered rankings.
	phaseStart := time.Now()
	orderSpan := tr.StartScope("cl/ordering")
	// Every phase span is deferred in addition to the explicit End on
	// the success path (End is idempotent): an error return mid-phase
	// must not leak an open scope, or obs.Validate rejects the trace.
	defer orderSpan.End()
	ord, counts, err := vj.ComputeOrder(flow.Parallelize(ctx, rs, opts.Partitions), opts.Partitions)
	if err != nil {
		return nil, err
	}
	rs = slices.Clone(rs) // the caller's slice and rankings stay as given
	for i, r := range rs {
		rs[i] = ord.Renumber(r)
		byID[r.ID] = rs[i]
	}
	dict := flow.NewBroadcast(ctx, byID)
	ds := flow.Parallelize(ctx, rs, opts.Partitions).Cache()
	if opts.Delta < 0 {
		// The counts were all-gathered, so every SPMD worker plans the
		// identical δ. The prefix is the one for θ, as SuggestDelta
		// documents, not the joining phase's looser θ+2θc prefixes.
		var predicted float64
		opts.Delta, predicted = stats.PlanDelta(rs, counts, filters.PrefixOverlap(t.f, k))
		if opts.Stats != nil {
			opts.Stats.PredictedListLen = predicted
		}
	}
	if opts.Stats != nil {
		opts.Stats.Delta = opts.Delta
	}
	orderSpan.End()
	ctx.ObserveStage("cl/ordering", time.Since(phaseStart))
	if opts.Stats != nil {
		opts.Stats.OrderingTime = time.Since(phaseStart)
	}

	// Phase 2: Clustering — VJ at θc over the renumbered dataset, with
	// the per-partition index kernel this phase has always run, and no
	// repartitioning — θc is small, so clustering prefixes and posting
	// lists stay short. The paper's CL clusters with iterators (§4.1),
	// and vj.NestedLoop here is faster; ROADMAP 1(a) records why the swap
	// waits on the benchmark's calibration.
	phaseStart = time.Now()
	clusterSpan := tr.StartScope("cl/clustering")
	defer clusterSpan.End()
	clusterPairsDS, err := vj.JoinDataset(ds, rs, vj.Options{
		Theta:       opts.ThetaC,
		Variant:     vj.IndexJoin,
		Partitions:  opts.Partitions,
		SkipReorder: true, // renumbered above
		Stats:       statsClustering(opts.Stats),
	})
	if err != nil {
		return nil, err
	}
	clusterPairsDS = clusterPairsDS.Cache()
	nClusterPairs, err := clusterPairsDS.Count()
	if err != nil {
		return nil, err
	}

	// Clusters: group the θc-pairs by their smaller id — the centroid
	// (Figure 3). The member keeps its exact centroid distance. The
	// member-count histogram is observed once per cluster (the grouped
	// dataset is cached, so the observing map runs exactly once).
	clusterHist := ctx.Histogram("cl/cluster_members")
	clusters := flow.Map(
		flow.GroupByKey(
			flow.Map(clusterPairsDS, func(p rankings.Pair) flow.KV[int64, Member] {
				return flow.KV[int64, Member]{K: p.A, V: Member{ID: p.B, Dist: p.Dist}}
			}),
			opts.Partitions,
		),
		func(g flow.KV[int64, []Member]) flow.KV[int64, []Member] {
			clusterHist.Observe(int64(len(g.V)))
			return g
		},
	).Cache()

	// Singletons: rankings that appear in no θc-pair, found with a
	// distributed anti-join (cogroup with empty right side).
	allIDs := flow.Map(ds, func(r *rankings.Ranking) flow.KV[int64, struct{}] {
		return flow.KV[int64, struct{}]{K: r.ID}
	})
	touched := flow.FlatMap(clusterPairsDS, func(p rankings.Pair) []flow.KV[int64, struct{}] {
		return []flow.KV[int64, struct{}]{{K: p.A}, {K: p.B}}
	})
	singletonIDs := flow.FlatMap(
		flow.CoGroup(allIDs, touched, opts.Partitions),
		func(kv flow.KV[int64, flow.CoGrouped[struct{}, struct{}]]) []int64 {
			if len(kv.V.Right) == 0 {
				return []int64{kv.K}
			}
			return nil
		})

	// C = Cm ∪ Cs.
	centroidRecords := flow.Union(
		flow.Map(flow.Keys(clusters), func(id int64) *Centroid {
			return &Centroid{R: dict.Value()[id], Singleton: false}
		}),
		flow.Map(singletonIDs, func(id int64) *Centroid {
			return &Centroid{R: dict.Value()[id], Singleton: true}
		}),
	)
	if opts.Stats != nil {
		opts.Stats.ClusterPairs = nClusterPairs
		if opts.Stats.Clusters, err = clusters.Count(); err != nil {
			return nil, err
		}
		if opts.Stats.Singletons, err = singletonIDs.Count(); err != nil {
			return nil, err
		}
	}
	clusterSpan.End()
	ctx.ObserveStage("cl/clustering", time.Since(phaseStart))
	if opts.Stats != nil {
		opts.Stats.ClusteringTime = time.Since(phaseStart)
	}

	// Phase 3: Joining — Algorithm 1 over the centroids, with
	// type-dependent prefixes and Lemma 5.3 thresholds, repartitioned
	// per §6 when Delta > 0.
	phaseStart = time.Now()
	joinSpan := tr.StartScope("cl/joining")
	defer joinSpan.End()
	// The centroid kernels are nested loops, so the catch-all group
	// (needed when θ+2θc admits zero-overlap centroid pairs) is handled
	// completely.
	catchAll := filters.MinOverlap(t.fo, k) == 0
	groups := vj.PrefixGroups(centroidRecords, func(c *Centroid) []rankings.Item {
		p := t.prefixFor(c.Singleton)
		if opts.UniformJoinThreshold {
			p = t.prefixM
		}
		return vj.PrefixTokens(c.R, p, catchAll)
	}, opts.Partitions)
	joinStats := statsJoining(opts.Stats)
	cpairsRaw := vj.JoinTokenGroups(groups, vj.GroupJoinOptions[*Centroid, CPair]{
		Partitions: opts.Partitions,
		Delta:      opts.Delta,
		SubKey:     func(c *Centroid) int64 { return c.R.ID },
		Self: func(_ rankings.Item, members []*Centroid) []CPair {
			var d obs.FilterDelta
			out := centroidSelfJoin(members, t, opts.UniformJoinThreshold, &d)
			joinStats.Tally(ctx.Filters(), d)
			return out
		},
		Cross: func(_ rankings.Item, a, b []*Centroid) []CPair {
			var d obs.FilterDelta
			out := centroidCrossJoin(a, b, t, opts.UniformJoinThreshold, &d)
			joinStats.Tally(ctx.Filters(), d)
			return out
		},
		Stats: joinStats,
	})
	cpairs := flow.Distinct(cpairsRaw, opts.Partitions).Cache()
	nCPairs, err := cpairs.Count()
	if err != nil {
		return nil, err
	}
	joinSpan.End()
	ctx.ObserveStage("cl/joining", time.Since(phaseStart))
	if opts.Stats != nil {
		opts.Stats.CentroidPairs = nCPairs
		opts.Stats.JoiningTime = time.Since(phaseStart)
	}

	// Phase 4: Expansion — Algorithm 2.
	phaseStart = time.Now()
	expandSpan := tr.StartScope("cl/expansion")
	defer expandSpan.End()
	results := expand(expandInputs{
		thresholds:   t,
		opts:         opts,
		filters:      ctx.Filters(),
		dict:         dict,
		clusterPairs: clusterPairsDS,
		clusters:     clusters,
		cpairs:       cpairs,
	})
	final := flow.DistinctBy(results, opts.Partitions, func(p rankings.Pair) rankings.PairKey {
		return p.Key()
	})
	out, err := final.Collect()
	if err != nil {
		return nil, err
	}
	rankings.SortPairs(out)
	expandSpan.End()
	ctx.ObserveStage("cl/expansion", time.Since(phaseStart))
	if opts.Stats != nil {
		opts.Stats.ExpansionTime = time.Since(phaseStart)
		opts.Stats.Results = int64(len(out))
	}
	return out, nil
}

func statsClustering(s *Stats) *vj.Stats {
	if s == nil {
		return nil
	}
	return &s.Clustering
}

func statsJoining(s *Stats) *vj.Stats {
	if s == nil {
		return nil
	}
	return &s.Joining
}
