package core_test

import (
	"math/rand"
	"testing"

	"rankjoin/internal/core"
	"rankjoin/internal/flow"
	"rankjoin/internal/obs"
	"rankjoin/internal/ppjoin"
	"rankjoin/internal/rankings"
	"rankjoin/internal/testutil"
	"rankjoin/internal/vj"
)

func ctx(workers int) *flow.Context {
	return flow.NewContext(flow.Config{Workers: workers, DefaultPartitions: 4})
}

func oracle(rs []*rankings.Ranking, theta float64) []rankings.Pair {
	if len(rs) == 0 {
		return nil
	}
	return rankings.DedupPairs(ppjoin.BruteForce(rs, rankings.Threshold(theta, rs[0].K()), new(obs.FilterDelta)))
}

// TestCLMatchesOracleRandom: the full 4-phase pipeline returns exactly
// the brute-force result set on uniform random data across thresholds,
// clustering thresholds and engine sizings.
func TestCLMatchesOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		k := 4 + rng.Intn(8)
		rs := testutil.RandDataset(rng, 50+rng.Intn(120), k, k+rng.Intn(4*k))
		theta := 0.05 + 0.4*rng.Float64()
		thetaC := 0.01 + 0.09*rng.Float64()
		want := oracle(rs, theta)
		got, err := core.Join(ctx(1+rng.Intn(4)), rs, core.Options{
			Theta:      theta,
			ThetaC:     thetaC,
			Partitions: 1 + rng.Intn(8),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rankings.SamePairs(got, want) {
			extra, missing := rankings.DiffPairs(got, want)
			t.Fatalf("trial %d k=%d θ=%.3f θc=%.3f: extra=%v missing=%v",
				trial, k, theta, thetaC, extra, missing)
		}
	}
}

// TestCLMatchesOracleClustered: datasets with genuine near-duplicate
// structure — the regime where the clustering phase actually forms
// non-singleton clusters and the expansion does real work.
func TestCLMatchesOracleClustered(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		k := 5 + rng.Intn(8)
		rs := testutil.ClusteredDataset(rng, 8+rng.Intn(15), 2+rng.Intn(5), k, 4*k+rng.Intn(4*k))
		theta := 0.1 + 0.3*rng.Float64()
		thetaC := 0.02 + 0.08*rng.Float64()
		want := oracle(rs, theta)

		var st core.Stats
		got, err := core.Join(ctx(4), rs, core.Options{
			Theta:      theta,
			ThetaC:     thetaC,
			Partitions: 1 + rng.Intn(8),
			Stats:      &st,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rankings.SamePairs(got, want) {
			extra, missing := rankings.DiffPairs(got, want)
			t.Fatalf("trial %d k=%d θ=%.3f θc=%.3f: extra=%v missing=%v\nstats: %v",
				trial, k, theta, thetaC, extra, missing, &st)
		}
	}
}

// TestClustersActuallyForm: on near-duplicate data the clustering phase
// must produce non-singleton clusters — otherwise CL degenerates to VJ
// and these tests prove nothing.
func TestClustersActuallyForm(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rs := testutil.ClusteredDataset(rng, 20, 5, 10, 100)
	var st core.Stats
	if _, err := core.Join(ctx(4), rs, core.Options{Theta: 0.3, ThetaC: 0.05, Stats: &st}); err != nil {
		t.Fatal(err)
	}
	if st.Clusters == 0 {
		t.Fatalf("no clusters formed on clustered dataset: %v", &st)
	}
	if st.ClusterPairs == 0 || st.CentroidPairs == 0 {
		t.Fatalf("degenerate run: %v", &st)
	}
	if st.Singletons+st.Clusters == 0 {
		t.Fatalf("no centroids at all: %v", &st)
	}
}

// TestCLPMatchesOracle: repartitioning the centroid join (CL-P) with
// any δ leaves the result set unchanged.
func TestCLPMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 8; trial++ {
		k := 5 + rng.Intn(6)
		rs := testutil.ClusteredDataset(rng, 15, 4, k, 5*k)
		theta := 0.15 + 0.25*rng.Float64()
		want := oracle(rs, theta)
		for _, delta := range []int{1, 3, 10, 100} {
			got, err := core.Join(ctx(4), rs, core.Options{
				Theta:      theta,
				ThetaC:     0.04,
				Delta:      delta,
				Partitions: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !rankings.SamePairs(got, want) {
				extra, missing := rankings.DiffPairs(got, want)
				t.Fatalf("trial %d δ=%d: extra=%v missing=%v", trial, delta, extra, missing)
			}
		}
	}
}

// TestAblationsStillExact: disabling Lemma 5.3 or the triangle filter
// trades performance, never correctness.
func TestAblationsStillExact(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 6; trial++ {
		k := 5 + rng.Intn(6)
		rs := testutil.ClusteredDataset(rng, 12, 4, k, 5*k)
		theta := 0.15 + 0.25*rng.Float64()
		want := oracle(rs, theta)
		for _, o := range []core.Options{
			{Theta: theta, ThetaC: 0.04, UniformJoinThreshold: true},
			{Theta: theta, ThetaC: 0.04, NoTriangleFilter: true},
			{Theta: theta, ThetaC: 0.04, UniformJoinThreshold: true, NoTriangleFilter: true},
		} {
			got, err := core.Join(ctx(4), rs, o)
			if err != nil {
				t.Fatal(err)
			}
			if !rankings.SamePairs(got, want) {
				extra, missing := rankings.DiffPairs(got, want)
				t.Fatalf("trial %d opts %+v: extra=%v missing=%v", trial, o, extra, missing)
			}
		}
	}
}

// TestUnverifiedPartials: pair identities must still match the oracle;
// pairs may carry Dist == -1, but only for genuinely-within-θ pairs.
func TestUnverifiedPartials(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 6; trial++ {
		k := 6 + rng.Intn(5)
		rs := testutil.ClusteredDataset(rng, 15, 4, k, 5*k)
		theta := 0.2 + 0.2*rng.Float64()
		want := oracle(rs, theta)
		var st core.Stats
		got, err := core.Join(ctx(4), rs, core.Options{
			Theta: theta, ThetaC: 0.05, UnverifiedPartials: true, Stats: &st,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d pairs, oracle %d", trial, len(got), len(want))
		}
		wantKeys := map[rankings.PairKey]int{}
		for _, p := range want {
			wantKeys[p.Key()] = p.Dist
		}
		for _, p := range got {
			trueDist, ok := wantKeys[p.Key()]
			if !ok {
				t.Fatalf("trial %d: spurious pair %v", trial, p)
			}
			if p.Dist != -1 && p.Dist != trueDist {
				t.Fatalf("trial %d: pair %v has wrong distance (true %d)", trial, p, trueDist)
			}
		}
	}
}

// TestThetaCAboveTheta: an oversized clustering threshold (θc > θ) is
// unusual but must stay correct — clustering pairs beyond θ are
// filtered, same-cluster members verified.
func TestThetaCAboveTheta(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	rs := testutil.ClusteredDataset(rng, 15, 4, 8, 40)
	want := oracle(rs, 0.1)
	got, err := core.Join(ctx(4), rs, core.Options{Theta: 0.1, ThetaC: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if !rankings.SamePairs(got, want) {
		extra, missing := rankings.DiffPairs(got, want)
		t.Fatalf("θc>θ: extra=%v missing=%v", extra, missing)
	}
}

// TestIndexVariantClustering pins the kernel the clustering phase runs:
// the per-partition inverted index. Only ppjoin.PrefixIndex tallies
// PrunedPrefix, so a clustering ledger with prefix prunes ran it. The
// nested loop is the paper's choice (§4.1) and ROADMAP 1(a) says what
// the swap waits on; whoever makes it flips this assertion.
func TestIndexVariantClustering(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rs := testutil.ClusteredDataset(rng, 15, 4, 8, 40)
	want := oracle(rs, 0.25)
	var st core.Stats
	got, err := core.Join(ctx(4), rs, core.Options{Theta: 0.25, ThetaC: 0.04, Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	if !rankings.SamePairs(got, want) {
		extra, missing := rankings.DiffPairs(got, want)
		t.Fatalf("extra=%v missing=%v", extra, missing)
	}
	if c := st.Clustering.Filters.Snapshot(); c.PrunedPrefix == 0 {
		t.Errorf("clustering ledger %v: no prefix prunes, the phase did not run the index kernel", c)
	}
}

func TestValidationAndEdges(t *testing.T) {
	if _, err := core.Join(ctx(1), nil, core.Options{Theta: 0.2}); err != nil {
		t.Errorf("empty dataset: %v", err)
	}
	mixed := []*rankings.Ranking{
		rankings.MustNew(0, []rankings.Item{1, 2, 3}),
		rankings.MustNew(1, []rankings.Item{1, 2}),
	}
	if _, err := core.Join(ctx(1), mixed, core.Options{Theta: 0.2}); err == nil {
		t.Error("mixed lengths accepted")
	}
	if _, err := core.Join(ctx(1), mixed[:1], core.Options{Theta: 2}); err == nil {
		t.Error("theta out of range accepted")
	}
	if _, err := core.Join(ctx(1), mixed[:1], core.Options{Theta: 0.2, ThetaC: -1}); err == nil {
		t.Error("negative thetaC accepted")
	}
	dup := []*rankings.Ranking{
		rankings.MustNew(7, []rankings.Item{1, 2, 3}),
		rankings.MustNew(7, []rankings.Item{4, 5, 6}),
	}
	if _, err := core.Join(ctx(1), dup, core.Options{Theta: 0.2}); err == nil {
		t.Error("duplicate ids accepted")
	}
}

func TestSingleRankingAndTinyDatasets(t *testing.T) {
	one := []*rankings.Ranking{rankings.MustNew(0, []rankings.Item{1, 2, 3, 4, 5})}
	got, err := core.Join(ctx(2), one, core.Options{Theta: 0.3})
	if err != nil || len(got) != 0 {
		t.Errorf("single ranking: %v %v", got, err)
	}
	two := append(one, rankings.MustNew(1, []rankings.Item{1, 2, 3, 5, 4}))
	got, err = core.Join(ctx(2), two, core.Options{Theta: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Dist != 2 {
		t.Errorf("adjacent swap pair: %v", got)
	}
}

// TestStatsPopulated: the per-phase accounting is filled in and
// internally consistent.
func TestStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	rs := testutil.ClusteredDataset(rng, 20, 5, 10, 80)
	var st core.Stats
	got, err := core.Join(ctx(4), rs, core.Options{Theta: 0.3, ThetaC: 0.05, Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	if st.Results != int64(len(got)) {
		t.Errorf("results %d vs %d", st.Results, len(got))
	}
	if j := st.Joining.Filters.Snapshot(); j.Generated == 0 || !j.Conserved() {
		t.Errorf("joining ledger empty or not conserved: %v", &st)
	}
	if e := st.Expansion.Snapshot(); e.Generated == 0 || !e.Conserved() {
		t.Errorf("expansion ledger empty or not conserved: %v", &st)
	}
	if st.Clustering.Snapshot().Groups == 0 {
		t.Error("clustering stats empty")
	}
	if st.OrderingTime+st.ClusteringTime+st.JoiningTime+st.ExpansionTime <= 0 {
		t.Error("phase times not recorded")
	}
}

// TestJoiningPhaseSharesTheCascade: the centroid join resolves its
// candidates through filters.Resolve like every other kernel, so its
// ledger conserves and the signature bound — which the phase used to
// skip, verifying 389 candidates per result pair on join_dense —
// rejects some of them.
func TestJoiningPhaseSharesTheCascade(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	rs := testutil.ClusteredDataset(rng, 60, 4, 10, 200)
	var st core.Stats
	if _, err := core.Join(ctx(4), rs, core.Options{Theta: 0.3, ThetaC: 0.05, Stats: &st}); err != nil {
		t.Fatal(err)
	}
	j := st.Joining.Filters.Snapshot()
	if !j.Conserved() {
		t.Errorf("joining ledger not conserved: %v", j)
	}
	if j.PrunedSignature == 0 {
		t.Errorf("joining phase pruned nothing by signature: %v", j)
	}
	if j.PrunedPrefix != 0 || j.PrunedTriangle != 0 || j.AcceptedUnverified != 0 {
		t.Errorf("joining phase tallied a fate it does not have: %v", j)
	}
}

// TestDeterministicAcrossWorkers: same dataset and options, any worker
// budget — identical result sets.
func TestDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rs := testutil.ClusteredDataset(rng, 15, 4, 10, 60)
	ref, err := core.Join(ctx(1), rs, core.Options{Theta: 0.3, ThetaC: 0.04, Delta: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 8} {
		got, err := core.Join(ctx(w), rs, core.Options{Theta: 0.3, ThetaC: 0.04, Delta: 8})
		if err != nil {
			t.Fatal(err)
		}
		if !rankings.SamePairs(got, ref) {
			t.Fatalf("workers=%d diverged", w)
		}
	}
}

// TestAgainstVJ: CL and VJ must agree on every dataset (they solve the
// same problem); this cross-checks two fully independent pipelines.
func TestAgainstVJ(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 8; trial++ {
		k := 5 + rng.Intn(6)
		rs := testutil.ClusteredDataset(rng, 12, 4, k, 4*k)
		theta := 0.1 + 0.3*rng.Float64()
		fromVJ, err := vj.Join(ctx(4), rs, vj.Options{Theta: theta})
		if err != nil {
			t.Fatal(err)
		}
		fromCL, err := core.Join(ctx(4), rs, core.Options{Theta: theta, ThetaC: 0.03})
		if err != nil {
			t.Fatal(err)
		}
		if !rankings.SamePairs(rankings.DedupPairs(fromVJ), fromCL) {
			t.Fatalf("trial %d: CL and VJ disagree", trial)
		}
	}
}
