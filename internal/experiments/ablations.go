package experiments

import (
	"fmt"
	"time"

	"rankjoin"
	"rankjoin/internal/core"
	"rankjoin/internal/dataset"
	"rankjoin/internal/flow"
	"rankjoin/internal/metricspace"
	"rankjoin/internal/rankings"
	"rankjoin/internal/vj"
)

// The ablation experiments isolate the design choices the paper asserts
// but does not always measure separately. Each one toggles exactly one
// mechanism and reports both wall time and the internal counter the
// mechanism is supposed to move.

func newCtx(p Params) *flow.Context {
	ctx := flow.NewContext(flow.Config{Workers: p.Workers, DefaultPartitions: p.Partitions})
	ctx.SetTracer(p.Tracer)
	return ctx
}

// AblationOrdering measures §4's claim that frequency reordering pays
// off for top-k rankings even though their length is fixed: VJ-NL with
// the frequency order vs the identity order, across θ.
func AblationOrdering(p Params) (*Table, error) {
	w, err := MakeWorkload(p, dataset.DBLPLike, 10, 1)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:    "ablation-ordering",
		Title:   fmt.Sprintf("VJ-NL with vs without frequency reordering — %s", w.Name),
		Columns: []string{"theta", "ordered(ms)", "identity(ms)", "ordered cand", "identity cand"},
	}
	for _, th := range Thetas {
		var stOrd, stId vj.Stats
		startOrd := time.Now()
		if _, err := vj.Join(newCtx(p), w.Rankings, vj.Options{
			Theta: th, Variant: vj.NestedLoop, Stats: &stOrd,
		}); err != nil {
			return nil, err
		}
		dOrd := time.Since(startOrd)
		startID := time.Now()
		if _, err := vj.Join(newCtx(p), w.Rankings, vj.Options{
			Theta: th, Variant: vj.NestedLoop, SkipReorder: true, Stats: &stId,
		}); err != nil {
			return nil, err
		}
		dID := time.Since(startID)
		t.AddRow(fmtF(th), fmtDur(dOrd), fmtDur(dID),
			fmt.Sprint(stOrd.Snapshot().Generated), fmt.Sprint(stId.Snapshot().Generated))
	}
	return t, nil
}

// AblationLemma53 measures Algorithm 1's refinement: joining the
// centroids with per-type thresholds vs a uniform θ+2θc.
func AblationLemma53(p Params) (*Table, error) {
	w, err := MakeWorkload(p, dataset.ORKULike, 10, 1)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:    "ablation-lemma53",
		Title:   fmt.Sprintf("centroid join with Lemma 5.3 vs uniform θ+2θc — %s", w.Name),
		Columns: []string{"theta", "lemma(ms)", "uniform(ms)", "lemma Rj", "uniform Rj"},
	}
	for _, th := range Thetas {
		run := func(uniform bool) (time.Duration, int64, error) {
			st := &core.Stats{}
			start := time.Now()
			_, err := core.Join(newCtx(p), w.Rankings, core.Options{
				Theta: th, ThetaC: 0.03, UniformJoinThreshold: uniform, Stats: st,
			})
			return time.Since(start), st.CentroidPairs, err
		}
		dl, rl, err := run(false)
		if err != nil {
			return nil, err
		}
		du, ru, err := run(true)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmtF(th), fmtDur(dl), fmtDur(du), fmt.Sprint(rl), fmt.Sprint(ru))
	}
	t.AddNote("Rj = centroid pairs retrieved by the joining phase; Lemma 5.3 should retrieve fewer")
	return t, nil
}

// AblationTriangle measures §5.3's expansion filter: with the triangle
// pruning vs verifying every expansion candidate.
func AblationTriangle(p Params) (*Table, error) {
	w, err := MakeWorkload(p, dataset.ORKULike, 10, 1)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:    "ablation-triangle",
		Title:   fmt.Sprintf("expansion with vs without triangle filtering — %s", w.Name),
		Columns: []string{"theta", "filter(ms)", "nofilter(ms)", "verified w/", "verified w/o"},
	}
	for _, th := range Thetas {
		run := func(noFilter bool) (time.Duration, int64, error) {
			st := &core.Stats{}
			start := time.Now()
			_, err := core.Join(newCtx(p), w.Rankings, core.Options{
				Theta: th, ThetaC: 0.03, NoTriangleFilter: noFilter, Stats: st,
			})
			return time.Since(start), st.Expansion.Snapshot().Verified, err
		}
		df, vf, err := run(false)
		if err != nil {
			return nil, err
		}
		dn, vn, err := run(true)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmtF(th), fmtDur(df), fmtDur(dn), fmt.Sprint(vf), fmt.Sprint(vn))
	}
	return t, nil
}

// AblationClustering compares the paper's pair-derived clustering with
// the random-centroid partitioning of §2/§5.1 at the same clustering
// threshold — the paper's argument is that random centroids mostly
// produce empty clusters at small θc.
func AblationClustering(p Params) (*Table, error) {
	w, err := MakeWorkload(p, dataset.ORKULike, 10, 1)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:    "ablation-clustering",
		Title:   fmt.Sprintf("pair-derived clusters (paper) vs random centroids — %s, θc=0.03", w.Name),
		Columns: []string{"method", "clusters", "members", "singletons", "empty%", "distances"},
	}
	// Paper's clustering: derived from the CL run's stats.
	st := &core.Stats{}
	if _, err := core.Join(newCtx(p), w.Rankings, core.Options{
		Theta: 0.3, ThetaC: 0.03, Stats: st,
	}); err != nil {
		return nil, err
	}
	t.AddRow("pair-derived",
		fmt.Sprint(st.Clusters),
		fmt.Sprint(st.ClusterPairs),
		fmt.Sprint(st.Singletons),
		"0", // every formed cluster has at least one member by construction
		fmt.Sprint(st.Clustering.Snapshot().Verified))

	// Random centroids at the same radius, cluster count set to the
	// pair-derived outcome (the paper notes it must be chosen upfront —
	// we give it the oracle answer and it still underperforms).
	maxDist := rankings.Threshold(0.03, 10)
	numCentroids := int(st.Clusters)
	if numCentroids < 1 {
		numCentroids = 1
	}
	res, err := metricspace.RandomCentroidClustering(w.Rankings, numCentroids, maxDist, p.Seed)
	if err != nil {
		return nil, err
	}
	members := 0
	nonEmpty := 0
	for _, c := range res.Clusters {
		members += len(c.Members)
		if len(c.Members) > 0 {
			nonEmpty++
		}
	}
	t.AddRow("random-centroid",
		fmt.Sprint(nonEmpty),
		fmt.Sprint(members),
		fmt.Sprint(len(res.Singletons)),
		fmt.Sprintf("%.0f", 100*res.EmptyClusterFraction()),
		fmt.Sprint(res.AssignmentDistances))
	return t, nil
}

// AblationDedup compares the paper's final dedup shuffle with the
// least-common-prefix-token emission that avoids duplicates at the
// source.
func AblationDedup(p Params) (*Table, error) {
	w, err := MakeWorkload(p, dataset.DBLPLike, 10, 1)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:    "ablation-dedup",
		Title:   fmt.Sprintf("VJ-NL final-distinct vs least-token dedup — %s", w.Name),
		Columns: []string{"theta", "distinct(ms)", "least-token(ms)", "shuffled w/", "shuffled w/o"},
	}
	for _, th := range Thetas {
		run := func(leastToken bool) (time.Duration, int64, error) {
			ctx := newCtx(p)
			start := time.Now()
			_, err := vj.Join(ctx, w.Rankings, vj.Options{
				Theta: th, Variant: vj.NestedLoop, LeastTokenDedup: leastToken,
			})
			return time.Since(start), ctx.Snapshot().ShuffleRecords, err
		}
		dd, sd, err := run(false)
		if err != nil {
			return nil, err
		}
		dl, sl, err := run(true)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmtF(th), fmtDur(dd), fmtDur(dl), fmt.Sprint(sd), fmt.Sprint(sl))
	}
	return t, nil
}

// Baselines compares the paper's four algorithms with the two §2
// baselines reproduced in this repository (V-SMART and the anchor-based
// ClusterJoin family) on one dataset across θ.
func Baselines(p Params) (*Table, error) {
	w, err := MakeWorkload(p, dataset.ORKULike, 10, 1)
	if err != nil {
		return nil, err
	}
	algos := append(append([]rankjoin.Algorithm(nil), AllAlgos...),
		rankjoin.AlgVSMART, rankjoin.AlgClusterJoin, rankjoin.AlgFSJoin)
	t := &Table{
		Name:  "baselines",
		Title: fmt.Sprintf("paper algorithms vs §2 baselines, time (ms) — %s", w.Name),
	}
	if err := thetaSweep(p, w, t, algos, false); err != nil {
		return nil, err
	}
	return t, nil
}
