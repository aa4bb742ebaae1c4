package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"rankjoin/internal/cluster"
	"rankjoin/internal/rankings"
	"rankjoin/internal/shard"
	"rankjoin/internal/testutil"
	"rankjoin/internal/testutil/wirecheck"
	"rankjoin/internal/wal"
)

// leaderWithWAL boots a durable leader over a temp WAL directory.
func leaderWithWAL(t *testing.T, shards int) (*Server, string, *shard.Index) {
	t.Helper()
	idx := shard.New(shard.Config{Shards: shards})
	mgr, err := wal.Open(t.TempDir(), wal.Config{Shards: shards, FsyncEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	if _, err := mgr.Recover(idx); err != nil {
		t.Fatal(err)
	}
	mgr.Attach(idx)
	s, ts := newTestServer(t, Config{Index: idx, WAL: mgr})
	return s, strings.TrimPrefix(ts.URL, "http://"), idx
}

// follower builds a replica index + server polling addr. The replica is
// driven manually with SyncOnce so tests control exactly when state
// moves.
func follower(t *testing.T, addr string, shards int) (*Replica, string) {
	t.Helper()
	idx := shard.New(shard.Config{Shards: shards})
	rep := NewReplica(addr, idx, time.Second, nil)
	_, ts := newTestServer(t, Config{Index: idx, Replica: rep})
	return rep, ts.URL
}

// TestFollowerReadOnly: a replica answers queries and refuses writes
// with 403 — writes belong to the leader.
func TestFollowerReadOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	_, leaderAddr, _ := leaderWithWAL(t, 2)
	rs := testutil.RandDataset(rng, 20, 5, 60)
	insertRankings(t, "http://"+leaderAddr, rs)

	rep, fURL := follower(t, leaderAddr, 2)
	if err := rep.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}

	if hits, _ := searchHits(t, fURL, map[string]any{"items": rs[0].Items, "theta": 0.3}); len(hits) == 0 {
		t.Fatal("follower answered no hits over replicated data")
	}
	// Every write endpoint, public and peer-local, is refused and moves
	// no epoch: the check lives where the index is written, not in the
	// handlers that used to be the only way in.
	before := rep.idx.Epochs()
	for path, body := range map[string]any{
		"/v1/insert":       map[string]any{"rankings": rs[:1]},
		"/v1/delete":       map[string]any{"ids": []int64{rs[0].ID}},
		cluster.PathInsert: cluster.UpsertReq{Rankings: rs[:1]},
		cluster.PathDelete: cluster.DeleteReq{IDs: []int64{rs[0].ID}},
	} {
		if code, out := post(t, fURL+path, body); code != http.StatusForbidden {
			t.Errorf("follower %s returned %d (%s), want 403", path, code, out["error"])
		}
	}
	if after := rep.idx.Epochs(); !slices.Equal(after, before) {
		t.Fatalf("refused writes moved the follower's epochs %v -> %v", before, after)
	}

	// The peer-local read answers what the public one does.
	want := queryHits(t, fURL+"/v1/knn", map[string]any{"items": rs[0].Items, "k": 4})
	got := queryHits(t, fURL+cluster.PathSearch, cluster.SearchReq{Items: rs[0].Items, KNN: 4, Exclude: shard.NoExclude})
	if len(want) == 0 || !sameNeighbors(got, want) {
		t.Fatalf("follower %s answered %v, /v1/knn %v", cluster.PathSearch, got, want)
	}
}

// TestLeaderFollowerEquivalence is the acceptance check: once the
// follower's epoch vector matches the leader's, /v1/search answers are
// identical — after the bootstrap full sync and after an incremental
// WAL-delta sync.
func TestLeaderFollowerEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	leaderSrv, leaderAddr, leaderIdx := leaderWithWAL(t, 4)
	rs := testutil.RandDataset(rng, 120, 6, 200)
	insertRankings(t, "http://"+leaderAddr, rs)

	rep, fURL := follower(t, leaderAddr, 4)
	if err := rep.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := rep.Status(); st.FullShardLoads == 0 {
		t.Fatal("bootstrap did not use full shard syncs")
	}
	compareAnswers(t, "http://"+leaderAddr, fURL, rs, rng)

	// Incremental round: mutate the leader, sync, re-compare. This must
	// ride the WAL delta, not re-ship shards.
	more := testutil.RandDataset(rng, 30, 6, 200)
	for i := range more {
		more[i].ID += 10_000
	}
	insertRankings(t, "http://"+leaderAddr, more)
	if code, out := post(t, "http://"+leaderAddr+"/v1/delete", map[string]any{"ids": []int64{rs[3].ID, rs[7].ID}}); code != http.StatusOK {
		t.Fatalf("leader delete returned %d: %s", code, out["error"])
	}
	before := rep.Status()
	if err := rep.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	after := rep.Status()
	if after.FullShardLoads != before.FullShardLoads {
		t.Fatalf("incremental sync re-shipped %d full shards", after.FullShardLoads-before.FullShardLoads)
	}
	if got := after.RecordsApplied - before.RecordsApplied; got != int64(len(more))+2 {
		t.Fatalf("delta applied %d records, want %d", got, len(more)+2)
	}

	fe := rep.idx.Epochs()
	le := leaderIdx.Epochs()
	for i := range le {
		if fe[i] != le[i] {
			t.Fatalf("shard %d: follower epoch %d, leader %d", i, fe[i], le[i])
		}
	}
	compareAnswers(t, "http://"+leaderAddr, fURL, append(rs, more...), rng)
	_ = leaderSrv
}

// compareAnswers fires a handful of range and kNN queries at both
// servers and requires identical hit lists at the same epoch vector.
func compareAnswers(t *testing.T, leaderURL, followerURL string, rs []*rankings.Ranking, rng *rand.Rand) {
	t.Helper()
	for q := 0; q < 8; q++ {
		r := rs[rng.Intn(len(rs))]
		var path string
		var body map[string]any
		if q%2 == 0 {
			path, body = "/v1/search", map[string]any{"items": r.Items, "theta": 0.4}
		} else {
			path, body = "/v1/knn", map[string]any{"items": r.Items, "k": 5}
		}
		lHits := queryHits(t, leaderURL+path, body)
		fHits := queryHits(t, followerURL+path, body)
		if !sameNeighbors(lHits, fHits) {
			t.Fatalf("query %d (%s %v): leader %v != follower %v", q, path, body, lHits, fHits)
		}
	}
}

func queryHits(t *testing.T, url string, body any) []shard.Neighbor {
	t.Helper()
	code, out := post(t, url, body)
	if code != http.StatusOK {
		t.Fatalf("%s returned %d: %s", url, code, out["error"])
	}
	var hits []shard.Neighbor
	if err := json.Unmarshal(out["hits"], &hits); err != nil {
		t.Fatal(err)
	}
	return hits
}

// stubLeader answers every replicate poll with resp.
func stubLeader(t *testing.T, resp *replicateResponse) string {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(resp)
	}))
	t.Cleanup(ts.Close)
	return strings.TrimPrefix(ts.URL, "http://")
}

// TestFollowerRefusesMisroutedRecord: a payload labelled shard 2 that
// carries another shard's id used to be applied — ApplyInsert routes by
// id — advancing that other shard with shard 2's epoch. The follower
// now replays through wal.ReplayShard, which refuses it as recovery
// always has, and nothing moves.
func TestFollowerRefusesMisroutedRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	_, leaderAddr, _ := leaderWithWAL(t, 4)
	insertRankings(t, "http://"+leaderAddr, testutil.RandDataset(rng, 40, 5, 80))
	rep, _ := follower(t, leaderAddr, 4)
	if err := rep.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	before, beforeEpochs := rep.idx.Snapshot()

	// The next record of shard 2's log, except that its id lives on
	// another shard.
	stray := testutil.RandRanking(rng, 10_000, 5, 80)
	for rep.idx.ShardOf(stray.ID) == 2 {
		stray.ID++
	}
	frame := binary.AppendUvarint([]byte{byte(wal.OpInsert)}, beforeEpochs[2]+1)
	frame = rankings.EndFrame(stray.AppendWire(frame), 0)
	rep.leader = stubLeader(t, &replicateResponse{Version: rankings.WireVersion, NumShards: 4, K: 5, Payloads: []replicateShard{
		{Shard: 2, Epoch: beforeEpochs[2] + 1, Body: frame},
	}})
	if err := rep.SyncOnce(context.Background()); err == nil {
		t.Fatal("follower applied a record that routes to another shard")
	}
	after, afterEpochs := rep.idx.Snapshot()
	if len(after) != len(before) {
		t.Fatalf("refused payload changed the follower from %d to %d rankings", len(before), len(after))
	}
	for i := range beforeEpochs {
		if afterEpochs[i] != beforeEpochs[i] {
			t.Fatalf("refused payload moved shard %d from epoch %d to %d", i, beforeEpochs[i], afterEpochs[i])
		}
	}
	if _, ok := rep.idx.Get(stray.ID); ok {
		t.Fatal("refused payload's ranking is in the follower's index")
	}

	// The same frame under its own shard's label is the well-formed
	// case: it applies.
	home := rep.idx.ShardOf(stray.ID)
	frame = binary.AppendUvarint([]byte{byte(wal.OpInsert)}, beforeEpochs[home]+1)
	frame = rankings.EndFrame(stray.AppendWire(frame), 0)
	rep.leader = stubLeader(t, &replicateResponse{Version: rankings.WireVersion, NumShards: 4, K: 5, Payloads: []replicateShard{
		{Shard: home, Epoch: beforeEpochs[home] + 1, Body: frame},
	}})
	if err := rep.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, ok := rep.idx.Get(stray.ID); !ok {
		t.Fatal("correctly labelled payload was not applied")
	}
}

// FuzzReplicateResponse: whatever a leader answers, the follower
// applies it without panicking and within the allocation bound; the
// bodies are WAL frames and snapshot images, held to byte-identical
// re-encoding by internal/wal's own targets.
func FuzzReplicateResponse(f *testing.F) {
	frames := binary.AppendUvarint([]byte{byte(wal.OpInsert)}, 1)
	frames = rankings.EndFrame(rankings.MustNew(0, []rankings.Item{5, 3, -3}).AppendWire(frames), 0)
	image := wal.EncodeSnapshot(0, 7, []*rankings.Ranking{rankings.MustNew(4, []rankings.Item{1, 2, 3})})
	f.Add(frames, false)
	f.Add(image, true)
	f.Add([]byte("RKS1"), true)
	f.Fuzz(func(t *testing.T, body []byte, full bool) {
		rep := NewReplica("unused", shard.New(shard.Config{Shards: 1}), time.Second, nil)
		defer rep.Close()
		wire, err := json.Marshal(replicateResponse{Version: rankings.WireVersion, NumShards: 1,
			Payloads: []replicateShard{{Epoch: 7, Full: full, Body: body}}})
		if err != nil {
			t.Fatal(err)
		}
		wirecheck.Decoder(t, wire, func(wire []byte) ([]byte, error) {
			var resp replicateResponse
			if err := json.Unmarshal(wire, &resp); err != nil {
				t.Fatal(err)
			}
			return wire, rep.applyShard(resp.Payloads[0])
		})
	})
}
