package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"rankjoin"
	"rankjoin/internal/check"
	"rankjoin/internal/cluster/clustertest"
	"rankjoin/internal/rankings"
	"rankjoin/internal/shard"
	"rankjoin/internal/testutil"
)

func postJSON(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("POST %s: parse %q: %v", url, data, err)
		}
	}
	return resp
}

type searchResp struct {
	Hits        []shard.Neighbor `json:"hits"`
	Cached      bool             `json:"cached"`
	Partial     bool             `json:"partial"`
	PeersFailed []string         `json:"peers_failed"`
}

// bruteHits is the single-node oracle for a clustered search.
func bruteHits(rs []*rankings.Ranking, q *rankings.Ranking, maxDist int, exclude int64, knn int) []shard.Neighbor {
	var hits []shard.Neighbor
	for _, r := range rs {
		if r.ID == exclude {
			continue
		}
		d := rankings.Footrule(q, r)
		if knn <= 0 && d > maxDist {
			continue
		}
		hits = append(hits, shard.Neighbor{ID: r.ID, Dist: d})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Dist != hits[j].Dist {
			return hits[i].Dist < hits[j].Dist
		}
		return hits[i].ID < hits[j].ID
	})
	if knn > 0 && len(hits) > knn {
		hits = hits[:knn]
	}
	return hits
}

func TestClusterScatterGatherMatchesOracle(t *testing.T) {
	f, err := clustertest.Boot(3, clustertest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	rng := rand.New(rand.NewSource(7))
	const k = 7
	rs := testutil.RandDataset(rng, 60, k, 40)
	if err := f.Load(rs); err != nil {
		t.Fatal(err)
	}
	// Placement actually sharded the data: no peer holds everything.
	for i, p := range f.Peers {
		if n := p.Index.Len(); n == 0 || n == len(rs) {
			t.Fatalf("peer %d holds %d of %d rankings; placement did not shard", i, n, len(rs))
		}
	}

	theta := 0.35
	maxDist := rankings.Threshold(theta, k)
	for _, q := range rs[:10] {
		want := bruteHits(rs, q, maxDist, q.ID, 0)
		// Every peer must give the identical full answer, id-form
		// queries included — even for ids the receiving peer doesn't own.
		for i := range f.Peers {
			var got searchResp
			postJSON(t, f.URL(i)+"/v1/search", map[string]any{"id": q.ID, "theta": theta}, &got)
			if got.Partial {
				t.Fatalf("peer %d: unexpected partial answer", i)
			}
			if !reflect.DeepEqual(nonNil(got.Hits), nonNil(want)) {
				t.Fatalf("peer %d query %d: got %v want %v", i, q.ID, got.Hits, want)
			}
		}
	}

	// kNN: global top-n, not per-peer top-n.
	for _, q := range rs[:5] {
		want := bruteHits(rs, q, 0, q.ID, 8)
		var got searchResp
		postJSON(t, f.URL(1)+"/v1/knn", map[string]any{"id": q.ID, "k": 8}, &got)
		if !reflect.DeepEqual(nonNil(got.Hits), nonNil(want)) {
			t.Fatalf("knn query %d: got %v want %v", q.ID, got.Hits, want)
		}
	}
}

func nonNil(ns []shard.Neighbor) []shard.Neighbor {
	if ns == nil {
		return []shard.Neighbor{}
	}
	return ns
}

func TestClusterInsertDeleteRouting(t *testing.T) {
	f, err := clustertest.Boot(3, clustertest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	rankingsJSON := make([]map[string]any, 30)
	for i := range rankingsJSON {
		rankingsJSON[i] = map[string]any{"id": i + 1, "items": []int{i + 1, i + 2, i + 3, i + 4, i + 5}}
	}
	var ins struct {
		Inserted int `json:"inserted"`
	}
	postJSON(t, f.URL(0)+"/v1/insert", map[string]any{"rankings": rankingsJSON}, &ins)
	if ins.Inserted != 30 {
		t.Fatalf("inserted %d, want 30", ins.Inserted)
	}
	total := 0
	ring := f.Peers[0].Cluster
	for id := int64(1); id <= 30; id++ {
		owner := ring.Owner(id)
		if _, ok := f.Peers[owner].Index.Get(id); !ok {
			t.Fatalf("id %d not on its owner peer %d", id, owner)
		}
		for i := range f.Peers {
			if i == owner {
				continue
			}
			if _, ok := f.Peers[i].Index.Get(id); ok {
				t.Fatalf("id %d replicated onto non-owner peer %d", id, i)
			}
		}
	}
	for _, p := range f.Peers {
		total += p.Index.Len()
	}
	if total != 30 {
		t.Fatalf("cluster holds %d rankings, want 30", total)
	}

	// The query cache sits under the scatter: each peer caches its own
	// leg under its own epochs. A repeat is a hit on the coordinator...
	query := map[string]any{"items": []int{1, 2, 3, 4, 6}, "k": 3}
	var first, repeat, after searchResp
	postJSON(t, f.URL(0)+"/v1/knn", query, &first)
	hits0 := f.Peers[0].Server.Status().Cache.Hits
	postJSON(t, f.URL(0)+"/v1/knn", query, &repeat)
	if got := f.Peers[0].Server.Status().Cache.Hits; got != hits0+1 {
		t.Fatalf("repeated scatter moved peer 0's cache hits %d -> %d, want one more", hits0, got)
	}
	if !repeat.Cached || !reflect.DeepEqual(repeat.Hits, first.Hits) {
		t.Fatalf("repeat cached=%v hits=%v, want the cached copy of %v", repeat.Cached, repeat.Hits, first.Hits)
	}
	// ...and a write owned by another peer moves that peer's epoch, so
	// its leg misses and the new nearest neighbour shows up at once.
	nearer := int64(1000)
	for ring.Owner(nearer) != 1 {
		nearer++
	}
	postJSON(t, f.URL(0)+"/v1/insert", map[string]any{"rankings": []map[string]any{
		{"id": nearer, "items": []int{1, 2, 3, 4, 6}}}}, nil)
	postJSON(t, f.URL(0)+"/v1/knn", query, &after)
	if len(after.Hits) == 0 || after.Hits[0] != (shard.Neighbor{ID: nearer, Dist: 0}) {
		t.Fatalf("after inserting %d on peer 1 the scatter answered %v", nearer, after.Hits)
	}
	if !after.Cached {
		t.Fatal("peer 0's own leg was untouched by peer 1's write, yet it missed")
	}
	postJSON(t, f.URL(0)+"/v1/delete", map[string]any{"ids": []int64{nearer}}, nil)

	ids := make([]int64, 30)
	for i := range ids {
		ids[i] = int64(i + 1)
	}
	var del struct {
		Deleted int `json:"deleted"`
	}
	postJSON(t, f.URL(2)+"/v1/delete", map[string]any{"ids": ids}, &del)
	if del.Deleted != 30 {
		t.Fatalf("deleted %d, want 30", del.Deleted)
	}
	for _, p := range f.Peers {
		if p.Index.Len() != 0 {
			t.Fatalf("peer still holds %d rankings after delete", p.Index.Len())
		}
	}
}

func TestClusterPartialDegradationOnPeerKill(t *testing.T) {
	f, err := clustertest.Boot(3, clustertest.Options{
		RPCTimeout: 500 * time.Millisecond,
		HedgeDelay: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	rng := rand.New(rand.NewSource(11))
	rs := testutil.RandDataset(rng, 45, 6, 30)
	if err := f.Load(rs); err != nil {
		t.Fatal(err)
	}

	f.Kill(2)

	var got searchResp
	postJSON(t, f.URL(0)+"/v1/search",
		map[string]any{"items": rs[0].Items, "theta": 0.4}, &got)
	if !got.Partial {
		t.Fatal("answer not marked partial after peer kill")
	}
	if len(got.PeersFailed) != 1 || got.PeersFailed[0] != f.Addrs[2] {
		t.Fatalf("peers_failed = %v, want [%s]", got.PeersFailed, f.Addrs[2])
	}
	// Surviving shards still answered. The items-form query has no
	// self-exclusion, so rs[0] itself may appear at distance 0.
	wantLive := bruteHitsOwnedBy(f, rs, rs[0], rankings.Threshold(0.4, 6), shard.NoExclude, []int{0, 1})
	if !reflect.DeepEqual(nonNil(got.Hits), nonNil(wantLive)) {
		t.Fatalf("partial hits %v, want surviving-shard hits %v", got.Hits, wantLive)
	}

	// The failure shows up in telemetry: a hedge (fast-fail retry) and
	// a partial-response count on the serving peer.
	metrics := getBody(t, f.URL(0)+"/metrics")
	for _, want := range []string{
		"rankserved_cluster_partial_responses_total 1",
		`rankserved_peer_rpc_hedges_total{peer="` + f.Addrs[2] + `"} 1`,
		`rankserved_peer_rpc_errors_total{peer="` + f.Addrs[2] + `"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	var st struct {
		Cluster struct {
			Partials int64 `json:"partial_responses"`
		} `json:"cluster"`
	}
	if err := json.Unmarshal([]byte(getBody(t, f.URL(0)+"/statusz")), &st); err != nil {
		t.Fatal(err)
	}
	if st.Cluster.Partials != 1 {
		t.Fatalf("statusz partial_responses = %d, want 1", st.Cluster.Partials)
	}
}

// bruteHitsOwnedBy is bruteHits restricted to rankings owned by the
// given live peers.
func bruteHitsOwnedBy(f *clustertest.Fleet, rs []*rankings.Ranking, q *rankings.Ranking, maxDist int, exclude int64, live []int) []shard.Neighbor {
	ring := f.Peers[0].Cluster
	alive := make(map[int]bool, len(live))
	for _, p := range live {
		alive[p] = true
	}
	var kept []*rankings.Ranking
	for _, r := range rs {
		if alive[ring.Owner(r.ID)] {
			kept = append(kept, r)
		}
	}
	return bruteHits(kept, q, maxDist, exclude, 0)
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestClusterTracesValid: a head-sampled scatter retains a well-formed
// trace — the local sweep nests under serve/scatter. (When the ring had
// its own handler body the sweep hung off the request root beside the
// scatter span, and every sampled trace on a coordinator was invalid.)
func TestClusterTracesValid(t *testing.T) {
	f, err := clustertest.Boot(3, clustertest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Load(testutil.RandDataset(rand.New(rand.NewSource(13)), 30, 5, 40)); err != nil {
		t.Fatal(err)
	}
	// The first request of each endpoint is always head-sampled.
	for _, req := range []struct {
		path string
		body map[string]any
	}{
		{"/v1/search", map[string]any{"items": []int{1, 2, 3, 4, 5}, "theta": 0.4}},
		{"/v1/knn", map[string]any{"items": []int{1, 2, 3, 4, 5}, "k": 3}},
	} {
		postJSON(t, f.URL(0)+req.path, req.body, nil)
		if lt := f.Peers[0].Server.Status().LastTrace; !lt.Present || !lt.Valid {
			t.Fatalf("%s through peer 0: last trace present=%v valid=%v (%s)", req.path, lt.Present, lt.Valid, lt.Error)
		}
	}
}

// TestClusterJoinRejectsDuplicateID: malformed join input is the
// client's fault on every ring size — 400, as server.TestValidationErrors
// pins for a single node — not a 502 blamed on a peer.
func TestClusterJoinRejectsDuplicateID(t *testing.T) {
	f, err := clustertest.Boot(3, clustertest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out struct {
		Error string `json:"error"`
	}
	resp := postJSON(t, f.URL(0)+"/v1/join", map[string]any{"theta": 0.3, "rankings": []map[string]any{
		{"id": 1, "items": []int{1, 2, 3}}, {"id": 1, "items": []int{3, 2, 1}}}}, &out)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(out.Error, "duplicate ranking id") {
		t.Fatalf("duplicated id on a ring of three: status %d (%s), want 400", resp.StatusCode, out.Error)
	}
}

// TestDistributedJoinIdenticalOn50Seeds is the acceptance gate for the
// batch plane: across 50 generated rankcheck trials, a join executed
// over the wire by a 3-peer cluster must return byte-identical pairs
// to single-node execution, cycling through all eight algorithms. The
// fleet is booted once — join jobs carry their own dataset and never
// touch the serving indexes.
func TestDistributedJoinIdenticalOn50Seeds(t *testing.T) {
	if testing.Short() {
		t.Skip("50-seed wire identity sweep is not a -short test")
	}
	f, err := clustertest.Boot(3, clustertest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	algos := []rankjoin.Algorithm{
		rankjoin.AlgBruteForce, rankjoin.AlgVJ, rankjoin.AlgVJNL,
		rankjoin.AlgCL, rankjoin.AlgCLP, rankjoin.AlgVSMART,
		rankjoin.AlgClusterJoin, rankjoin.AlgFSJoin,
	}
	for seed := int64(1); seed <= 50; seed++ {
		p, rs := check.Generate(seed)
		opts := rankjoin.Options{
			Algorithm:  algos[int(seed)%len(algos)],
			Theta:      p.Theta,
			ThetaC:     p.ThetaC,
			Delta:      p.Delta,
			Partitions: p.Partitions,
		}
		want, err := rankjoin.NewEngine(rankjoin.EngineConfig{Workers: 2}).Join(rs, opts)
		if err != nil {
			t.Fatalf("seed %d: single-node join: %v", seed, err)
		}
		got, err := f.Peers[0].Cluster.DistributedJoin(context.Background(), rs, opts)
		if err != nil {
			t.Fatalf("seed %d (%s): distributed join: %v", seed, opts.Algorithm, err)
		}
		if !reflect.DeepEqual(got.Pairs, want.Pairs) {
			t.Fatalf("seed %d (%s): distributed %d pairs != single-node %d pairs\n%s",
				seed, opts.Algorithm, len(got.Pairs), len(want.Pairs),
				fmt.Sprintf("got %v\nwant %v", clip(got.Pairs), clip(want.Pairs)))
		}

		// The same seed as CL-P with δ left to the join: every peer
		// plans δ for itself from the all-gathered ordering counts, and
		// every peer must plan what SuggestDelta computes from the whole
		// dataset — the coordinator's pairs alone would not show a
		// follower that planned differently and happened to split nothing.
		auto := rankjoin.Options{
			Algorithm: rankjoin.AlgCLP, Theta: p.Theta, ThetaC: p.ThetaC,
			Partitions: p.Partitions, Stats: true,
		}
		wantDelta, err := rankjoin.SuggestDelta(rs, p.Theta)
		if err != nil {
			t.Fatalf("seed %d: SuggestDelta: %v", seed, err)
		}
		got, err = f.Peers[0].Cluster.DistributedJoin(context.Background(), rs, auto)
		if err != nil {
			t.Fatalf("seed %d: auto-δ distributed join: %v", seed, err)
		}
		if !rankings.SamePairs(got.Pairs, want.Pairs) {
			t.Fatalf("seed %d: auto-δ CL-P pairs differ from single-node %s pairs\ngot %v\nwant %v",
				seed, opts.Algorithm, clip(got.Pairs), clip(want.Pairs))
		}
		for i, peer := range f.Peers {
			res, err := peer.Cluster.LastJobResult()
			if err != nil {
				t.Fatalf("seed %d: peer %d: %v", seed, i, err)
			}
			if res.CL.Delta != wantDelta {
				t.Fatalf("seed %d: peer %d planned δ=%d, SuggestDelta says %d", seed, i, res.CL.Delta, wantDelta)
			}
			if !reflect.DeepEqual(res.Pairs, got.Pairs) {
				t.Fatalf("seed %d: peer %d holds %d pairs, coordinator %d", seed, i, len(res.Pairs), len(got.Pairs))
			}
		}
	}
}

func clip(ps []rankings.Pair) []rankings.Pair {
	if len(ps) > 12 {
		return ps[:12]
	}
	return ps
}

// TestClusterCrashRecoveryDrill is the fleet-level durability drill: a
// durable peer is crashed (SIGKILL semantics — user-space WAL buffers
// discarded) in the middle of write churn, rebooted on the same
// address, and must come back holding every write the cluster
// acknowledged, with scatter-gather answers whole again.
func TestClusterCrashRecoveryDrill(t *testing.T) {
	fleet, err := clustertest.Boot(3, clustertest.Options{
		Shards:     2,
		WALRoot:    t.TempDir(),
		FsyncEvery: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	rng := rand.New(rand.NewSource(77))
	acked := make(map[int64][]rankings.Item)
	insert := func(rs []*rankings.Ranking) bool {
		body := map[string]any{"rankings": wireRankings(rs)}
		var out map[string]any
		resp := postJSON(t, fleet.URL(0)+"/v1/insert", body, &out)
		if resp.StatusCode != http.StatusOK {
			return false
		}
		for _, r := range rs {
			acked[r.ID] = r.Items
		}
		return true
	}

	if !insert(testutil.RandDataset(rng, 60, 5, 200)) {
		t.Fatal("seed insert failed")
	}

	// Churn in batches; crash the victim partway through. Batches that
	// land while the victim is down fail (its owners are unreachable) —
	// those are not acked and carry no durability promise.
	const victim = 2
	for batch := 0; batch < 8; batch++ {
		if batch == 3 {
			fleet.KillHard(victim)
		}
		rs := make([]*rankings.Ranking, 10)
		for i := range rs {
			rs[i] = testutil.RandRanking(rng, int64(1000+batch*10+i), 5, 200)
		}
		insert(rs)
	}
	if err := fleet.Restart(victim); err != nil {
		t.Fatal(err)
	}

	// Every acknowledged write must be somewhere in the fleet — owners
	// recovered theirs from snapshot+WAL.
	for id, items := range acked {
		owner := fleet.Peers[0].Cluster.Owner(id)
		r, ok := fleet.Peers[owner].Index.Get(id)
		if !ok {
			t.Fatalf("acked id %d lost after crash+restart (owner %d)", id, owner)
		}
		for j := range items {
			if r.Items[j] != items[j] {
				t.Fatalf("acked id %d corrupted after recovery", id)
			}
		}
	}

	// And the serving plane is whole again: a scatter query answers
	// non-partially and matches the oracle.
	var all []*rankings.Ranking
	for id, items := range acked {
		all = append(all, rankings.MustNew(id, items))
	}
	q := all[0]
	var sr searchResp
	postJSON(t, fleet.URL(1)+"/v1/search", map[string]any{"items": q.Items, "theta": 0.4}, &sr)
	if sr.Partial {
		t.Fatalf("post-recovery scatter still partial: failed peers %v", sr.PeersFailed)
	}
	want := bruteHits(all, q, rankings.Threshold(0.4, q.K()), -1, 0)
	if !reflect.DeepEqual(sr.Hits, want) {
		t.Fatalf("post-recovery hits = %v, want %v", sr.Hits, want)
	}
}

func wireRankings(rs []*rankings.Ranking) []map[string]any {
	out := make([]map[string]any, len(rs))
	for i, r := range rs {
		out[i] = map[string]any{"id": r.ID, "items": r.Items}
	}
	return out
}
