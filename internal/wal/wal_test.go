package wal

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"rankjoin/internal/rankings"
	"rankjoin/internal/shard"
	"rankjoin/internal/testutil"
	"rankjoin/internal/testutil/wirecheck"
)

func TestRecordRoundtrip(t *testing.T) {
	recs := []Record{
		{Op: OpInsert, Epoch: 1, ID: 42, Items: []rankings.Item{5, 3, 9, 1, 7}},
		{Op: OpDelete, Epoch: 2, ID: -9},
		{Op: OpInsert, Epoch: 1 << 40, ID: 1 << 50, Items: []rankings.Item{1}},
	}
	var buf []byte
	for _, rec := range recs {
		buf = appendRecord(buf, rec)
	}
	off := 0
	for i, want := range recs {
		got, n, err := decodeRecord(buf[off:])
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		off += n
		if got.Op != want.Op || got.Epoch != want.Epoch || got.ID != want.ID ||
			len(got.Items) != len(want.Items) {
			t.Fatalf("record %d: got %+v, want %+v", i, got, want)
		}
		for j := range want.Items {
			if got.Items[j] != want.Items[j] {
				t.Fatalf("record %d item %d: got %d, want %d", i, j, got.Items[j], want.Items[j])
			}
		}
	}
	if off != len(buf) {
		t.Fatalf("decoded %d of %d bytes", off, len(buf))
	}
}

func TestDecodeTornAndCorrupt(t *testing.T) {
	frame := appendRecord(nil, Record{Op: OpInsert, Epoch: 7, ID: 3, Items: []rankings.Item{1, 2, 3}})

	// Every strict prefix is torn, never corrupt: a crash can cut a
	// write anywhere and recovery must read it as end-of-log.
	for cut := 0; cut < len(frame); cut++ {
		if _, _, err := decodeRecord(frame[:cut]); !errors.Is(err, rankings.ErrTorn) {
			t.Fatalf("prefix of %d bytes: err = %v, want ErrTorn", cut, err)
		}
	}
	// A bit flip anywhere past the length prefix is corrupt (CRC catches
	// it); the frame is complete, just wrong.
	for pos := 1; pos < len(frame); pos++ {
		bad := append([]byte(nil), frame...)
		bad[pos] ^= 0x40
		_, _, err := decodeRecord(bad)
		if err == nil || errors.Is(err, rankings.ErrTorn) {
			t.Fatalf("flip at %d: err = %v, want ErrCorrupt", pos, err)
		}
	}
}

// openAttached builds a hooked (index, manager) pair over dir.
func openAttached(t *testing.T, dir string, shards int) (*shard.Index, *Manager) {
	t.Helper()
	mgr, err := Open(dir, Config{Shards: shards, FsyncEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	idx := shard.New(shard.Config{Shards: shards})
	if _, err := mgr.Recover(idx); err != nil {
		t.Fatal(err)
	}
	mgr.Attach(idx)
	return idx, mgr
}

// contents flattens an index into an id-sorted dump for comparison.
func contents(idx *shard.Index) []*rankings.Ranking {
	rs, _ := idx.Snapshot()
	sort.Slice(rs, func(i, j int) bool { return rs[i].ID < rs[j].ID })
	return rs
}

func sameContents(t *testing.T, got, want *shard.Index) {
	t.Helper()
	g, w := contents(got), contents(want)
	if len(g) != len(w) {
		t.Fatalf("recovered %d rankings, want %d", len(g), len(w))
	}
	for i := range w {
		if g[i].ID != w[i].ID {
			t.Fatalf("ranking %d: id %d, want %d", i, g[i].ID, w[i].ID)
		}
		for j := range w[i].Items {
			if g[i].Items[j] != w[i].Items[j] {
				t.Fatalf("id %d item %d: %d, want %d", w[i].ID, j, g[i].Items[j], w[i].Items[j])
			}
		}
	}
	ge, we := got.Epochs(), want.Epochs()
	for i := range we {
		if ge[i] != we[i] {
			t.Fatalf("shard %d epoch %d, want %d", i, ge[i], we[i])
		}
	}
}

func TestRecoverReplaysLog(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(1))
	idx, mgr := openAttached(t, dir, 3)
	for _, r := range testutil.RandDataset(rng, 60, 6, 100) {
		if err := idx.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	for id := int64(0); id < 20; id += 2 {
		if _, err := idx.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	idx2, mgr2 := openAttached(t, dir, 3)
	defer mgr2.Close()
	sameContents(t, idx2, idx)
}

func TestRecoverFromSnapshotPlusTail(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(2))
	idx, mgr := openAttached(t, dir, 2)
	for _, r := range testutil.RandDataset(rng, 40, 5, 80) {
		if err := idx.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := mgr.SnapshotAll(idx); err != nil {
		t.Fatal(err)
	}
	// Mutations past the snapshot live only in the WAL tail.
	for id := int64(1000); id < 1015; id++ {
		if err := idx.Insert(testutil.RandRanking(rng, id, 5, 80)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := idx.Delete(3); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	mgr2, err := Open(dir, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	idx2 := shard.New(shard.Config{Shards: 2})
	st, err := mgr2.Recover(idx2)
	if err != nil {
		t.Fatal(err)
	}
	if st.SnapshotsLoaded != 2 {
		t.Fatalf("snapshots loaded = %d, want 2", st.SnapshotsLoaded)
	}
	if st.RecordsReplayed == 0 {
		t.Fatal("no WAL records replayed over the snapshot")
	}
	sameContents(t, idx2, idx)
}

// TestTornTailTruncated cuts the final frame short — the shape a crash
// mid-write leaves — and checks recovery keeps the clean prefix,
// truncates the file, and counts the tear.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(3))
	idx, mgr := openAttached(t, dir, 1)
	want := testutil.RandDataset(rng, 10, 5, 60)
	for _, r := range want {
		if err := idx.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	path, size := newestSegment(t, filepath.Join(dir, "shard-000"))
	if err := os.Truncate(path, size-3); err != nil {
		t.Fatal(err)
	}

	mgr2, err := Open(dir, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	idx2 := shard.New(shard.Config{Shards: 1})
	st, err := mgr2.Recover(idx2)
	if err != nil {
		t.Fatal(err)
	}
	if st.TornTails != 1 {
		t.Fatalf("torn tails = %d, want 1", st.TornTails)
	}
	if st.RecordsReplayed != len(want)-1 {
		t.Fatalf("replayed %d records, want %d", st.RecordsReplayed, len(want)-1)
	}
	if idx2.Len() != len(want)-1 {
		t.Fatalf("recovered %d rankings, want %d", idx2.Len(), len(want)-1)
	}
	if e := idx2.Epochs()[0]; e != uint64(len(want)-1) {
		t.Fatalf("recovered epoch %d, want %d", e, len(want)-1)
	}
}

// TestBitFlippedCRC corrupts a byte inside the last record's payload;
// the CRC must reject it and recovery must stop exactly there.
func TestBitFlippedCRC(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(4))
	idx, mgr := openAttached(t, dir, 1)
	for _, r := range testutil.RandDataset(rng, 8, 5, 60) {
		if err := idx.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	path, size := newestSegment(t, filepath.Join(dir, "shard-000"))
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A byte near the end of the last frame, inside payload or CRC.
	if _, err := f.WriteAt([]byte{0xFF}, size-6); err != nil {
		t.Fatal(err)
	}
	f.Close()

	mgr2, err := Open(dir, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	idx2 := shard.New(shard.Config{Shards: 1})
	st, err := mgr2.Recover(idx2)
	if err != nil {
		t.Fatal(err)
	}
	if st.TornTails != 1 {
		t.Fatalf("torn tails = %d, want 1", st.TornTails)
	}
	if idx2.Len() != 7 {
		t.Fatalf("recovered %d rankings, want 7", idx2.Len())
	}
}

// TestInvalidSnapshotFallsBack corrupts the newest snapshot capture and
// checks recovery falls back to the older one plus the WAL suffix above
// it, reporting the skip.
func TestInvalidSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(5))
	idx, mgr := openAttached(t, dir, 1)
	for _, r := range testutil.RandDataset(rng, 20, 5, 60) {
		if err := idx.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := mgr.SnapshotAll(idx); err != nil {
		t.Fatal(err)
	}
	for id := int64(500); id < 510; id++ {
		if err := idx.Insert(testutil.RandRanking(rng, id, 5, 60)); err != nil {
			t.Fatal(err)
		}
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	// Plant a newer, garbage capture — what bit rot (or a crash that
	// somehow published junk) would leave as the newest snapshot.
	sdir := filepath.Join(dir, "shard-000")
	if err := os.WriteFile(filepath.Join(sdir, snapName(9999)), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	mgr2, err := Open(dir, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	idx2 := shard.New(shard.Config{Shards: 1})
	st, err := mgr2.Recover(idx2)
	if err != nil {
		t.Fatal(err)
	}
	if st.InvalidSnapshots != 1 {
		t.Fatalf("invalid snapshots = %d, want 1", st.InvalidSnapshots)
	}
	if st.SnapshotsLoaded != 1 {
		t.Fatalf("snapshots loaded = %d, want 1", st.SnapshotsLoaded)
	}
	sameContents(t, idx2, idx)
}

func TestRecordsSince(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(6))
	idx, mgr := openAttached(t, dir, 1)
	defer mgr.Close()
	for _, r := range testutil.RandDataset(rng, 12, 5, 60) {
		if err := idx.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	head := idx.Epochs()[0]

	recs, ok, err := mgr.RecordsSince(0, 4)
	if err != nil || !ok {
		t.Fatalf("RecordsSince(4) = ok=%v err=%v", ok, err)
	}
	if len(recs) != int(head)-4 {
		t.Fatalf("delta length %d, want %d", len(recs), int(head)-4)
	}
	for i, rec := range recs {
		if rec.Epoch != uint64(5+i) {
			t.Fatalf("delta[%d].Epoch = %d, want %d", i, rec.Epoch, 5+i)
		}
	}
	if recs, ok, err := mgr.RecordsSince(0, head); err != nil || !ok || len(recs) != 0 {
		t.Fatalf("RecordsSince(head) = %d recs, ok=%v, err=%v; want empty ok", len(recs), ok, err)
	}

	// Below the compaction floor the delta is gone: snapshot, then ask
	// for history the snapshot superseded.
	if err := mgr.SnapshotAll(idx); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := mgr.RecordsSince(0, 2); err != nil || ok {
		t.Fatalf("RecordsSince below floor: ok=%v err=%v, want ok=false", ok, err)
	}
}

// TestMetaRejectsShardMismatch pins the directory to its shard count.
func TestMetaRejectsShardMismatch(t *testing.T) {
	dir := t.TempDir()
	mgr, err := Open(dir, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	mgr.Close()
	if _, err := Open(dir, Config{Shards: 2}); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("reopen with 2 shards: err = %v, want ErrShardMismatch", err)
	}
}

func newestSegment(t *testing.T, sdir string) (path string, size int64) {
	t.Helper()
	segs, err := listSegments(sdir)
	if err != nil {
		t.Fatal(err)
	}
	// The newest non-empty segment: the freshly opened live segment of a
	// closed log is empty only when close flushed nothing into it.
	for i := len(segs) - 1; i >= 0; i-- {
		p := filepath.Join(sdir, segName(segs[i]))
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > 0 {
			return p, fi.Size()
		}
	}
	t.Fatal("no non-empty segment")
	return "", 0
}

// writerState tracks, per id, what a writer has been acknowledged for
// and what it had in flight when the crash hit — the two states
// recovery is allowed to surface.
type writerState struct {
	mu      sync.Mutex
	acked   map[int64][]rankings.Item // nil slice = acked absent (deleted)
	pending map[int64][]rankings.Item
}

// TestCrashRecoveryProperty is the acceptance drill: across 25 seeds,
// writers churn a hooked index, the process "crashes" (user-space WAL
// buffers discarded, as kill -9 would), and a reboot must recover every
// acknowledged write — an id may also surface in its in-flight state,
// never anything older or newer.
func TestCrashRecoveryProperty(t *testing.T) {
	const seeds = 25
	for seed := int64(0); seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			const shards = 2
			idx, mgr := openAttached(t, dir, shards)

			// Maybe leave a pre-crash snapshot behind so recovery has to
			// compose snapshot + WAL suffix, not just replay from zero.
			rng := rand.New(rand.NewSource(seed))
			base := testutil.RandDataset(rng, 30, 5, 200)
			states := make([]*writerState, 2)
			for w := range states {
				states[w] = &writerState{
					acked:   make(map[int64][]rankings.Item),
					pending: make(map[int64][]rankings.Item),
				}
			}
			for _, r := range base {
				if err := idx.Insert(r); err != nil {
					t.Fatal(err)
				}
				states[0].acked[r.ID] = r.Items
			}
			if seed%3 == 0 {
				if err := mgr.SnapshotAll(idx); err != nil {
					t.Fatal(err)
				}
			}

			// Two writers over disjoint id ranges churn until the crash
			// kicks them out.
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					st := states[w]
					lo := int64(w * 1000)
					wrng := rand.New(rand.NewSource(seed*31 + int64(w)))
					for op := 0; ; op++ {
						id := lo + wrng.Int63n(40)
						if w == 0 && op%4 == 3 {
							// Writer 0 also deletes from the base set.
							id = base[wrng.Intn(len(base))].ID
						}
						if wrng.Intn(3) == 0 {
							st.mu.Lock()
							st.pending[id] = nil
							st.mu.Unlock()
							if _, err := idx.Delete(id); err != nil {
								return // crashed mid-ack
							}
							st.mu.Lock()
							st.acked[id] = nil
							delete(st.pending, id)
							st.mu.Unlock()
							continue
						}
						r := testutil.RandRanking(wrng, id, 5, 200)
						st.mu.Lock()
						st.pending[id] = r.Items
						st.mu.Unlock()
						if err := idx.Insert(r); err != nil {
							return
						}
						st.mu.Lock()
						st.acked[id] = r.Items
						delete(st.pending, id)
						st.mu.Unlock()
					}
				}(w)
			}
			time.Sleep(time.Duration(5+seed%7) * time.Millisecond)
			mgr.Crash()
			wg.Wait()

			idx2, mgr2 := openAttached(t, dir, shards)
			defer mgr2.Close()

			for w, st := range states {
				st.mu.Lock()
				for id, items := range st.acked {
					if p, ok := st.pending[id]; ok {
						// In flight at the crash: either outcome is legal.
						if ok2 := matches(idx2, id, items) || matches(idx2, id, p); !ok2 {
							st.mu.Unlock()
							t.Fatalf("writer %d id %d: recovered state matches neither acked nor pending", w, id)
						}
						continue
					}
					if !matches(idx2, id, items) {
						st.mu.Unlock()
						t.Fatalf("writer %d id %d: acked write lost or altered by crash recovery", w, id)
					}
				}
				st.mu.Unlock()
			}
		})
	}
}

// matches reports whether idx holds exactly items under id (nil items =
// must be absent).
func matches(idx *shard.Index, id int64, items []rankings.Item) bool {
	r, ok := idx.Get(id)
	if items == nil {
		return !ok
	}
	if !ok || len(r.Items) != len(items) {
		return false
	}
	for i := range items {
		if r.Items[i] != items[i] {
			return false
		}
	}
	return true
}

// TestTornSnapshotPlusWALReplay pins the Index.Snapshot contract: under
// concurrent churn the capture is torn across shards — each shard cut
// at its own epoch — and each per-shard cut composes with the WAL
// records above that epoch into the exact final state.
func TestTornSnapshotPlusWALReplay(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(11))
	const shards = 4
	idx, mgr := openAttached(t, dir, shards)
	defer mgr.Close()
	for _, r := range testutil.RandDataset(rng, 80, 5, 300) {
		if err := idx.Insert(r); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wrng := rand.New(rand.NewSource(12))
		for id := int64(5000); ; id++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := idx.Insert(testutil.RandRanking(wrng, id, 5, 300)); err != nil {
				t.Error(err)
				return
			}
			if id%3 == 0 {
				if _, err := idx.Delete(id - 20); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	time.Sleep(5 * time.Millisecond)
	rs, epochs := idx.Snapshot() // torn: shard i is cut at epochs[i]
	close(stop)
	wg.Wait()

	// Rebuild: per shard, the cut plus its WAL suffix.
	idx2 := shard.New(shard.Config{Shards: shards})
	byShard := make([][]*rankings.Ranking, shards)
	for _, r := range rs {
		s := idx.ShardOf(r.ID)
		byShard[s] = append(byShard[s], r)
	}
	for i := 0; i < shards; i++ {
		if err := idx2.RestoreShard(i, byShard[i], epochs[i]); err != nil {
			t.Fatal(err)
		}
		recs, ok, err := mgr.RecordsSince(i, epochs[i])
		if err != nil || !ok {
			t.Fatalf("RecordsSince(%d, %d): ok=%v err=%v", i, epochs[i], ok, err)
		}
		for _, rec := range recs {
			switch rec.Op {
			case OpInsert:
				r, err := rankings.New(rec.ID, rec.Items)
				if err != nil {
					t.Fatal(err)
				}
				if err := idx2.ApplyInsert(r, rec.Epoch); err != nil {
					t.Fatal(err)
				}
			case OpDelete:
				if !idx2.ApplyDelete(rec.ID, rec.Epoch) {
					t.Fatalf("shard %d epoch %d: delete of absent id %d", i, rec.Epoch, rec.ID)
				}
			}
		}
	}
	sameContents(t, idx2, idx)
}

// Golden vectors of format generation 2 (hand-assembled, CRC computed
// outside this repository); the fuzz targets seed from them. A change
// here is a format change: bump rankings.WireVersion.
const (
	goldenInsert   = "0801ac0254030a0605b7cf742c"                 // epoch 300: id 42, items 5 3 -3
	goldenDelete   = "0402ad02113298dd5b"                         // epoch 301: id -9
	goldenSnapshot = "524b53320c03ad020254030a060501010ea68c70a7" // shard 3 at 301: that ranking and -1:[7]
)

// sealed wraps payload as rankings.Unseal expects it; the fuzz targets
// use it to get mutated payloads past the CRC.
func sealed(magic string, payload []byte) []byte {
	return rankings.EndFrame(append([]byte(magic), payload...), len(magic))
}

func unhex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestGoldenFormat(t *testing.T) {
	ins := Record{Op: OpInsert, Epoch: 300, ID: 42, Items: []rankings.Item{5, 3, -3}}
	del := Record{Op: OpDelete, Epoch: 301, ID: -9}
	if got := hex.EncodeToString(appendRecord(nil, ins)); got != goldenInsert {
		t.Errorf("insert record encodes as %s, golden %s", got, goldenInsert)
	}
	if got := hex.EncodeToString(appendRecord(nil, del)); got != goldenDelete {
		t.Errorf("delete record encodes as %s, golden %s", got, goldenDelete)
	}
	var got []Record
	last, off, err := scan(unhex(t, goldenInsert+goldenDelete), 299, func(rec Record) error {
		got = append(got, rec)
		return nil
	})
	if err != nil || last != 301 || off != (len(goldenInsert)+len(goldenDelete))/2 || len(got) != 2 ||
		got[0].ID != 42 || len(got[0].Items) != 3 || got[0].Items[2] != -3 || got[1].Op != OpDelete || got[1].ID != -9 {
		t.Errorf("golden records scan as %+v (last %d, off %d, err %v)", got, last, off, err)
	}

	rs := []*rankings.Ranking{rankings.MustNew(42, []rankings.Item{5, 3, -3}), rankings.MustNew(-1, []rankings.Item{7})}
	if got := hex.EncodeToString(EncodeSnapshot(3, 301, rs)); got != goldenSnapshot {
		t.Errorf("snapshot encodes as %s, golden %s", got, goldenSnapshot)
	}
	sh, epoch, back, err := DecodeSnapshot(unhex(t, goldenSnapshot))
	if err != nil || sh != 3 || epoch != 301 || len(back) != 2 || back[1].ID != -1 || !rankings.Equal(back[0], rs[0]) {
		t.Errorf("golden snapshot decodes as shard %d epoch %d %v, %v", sh, epoch, back, err)
	}
}

// TestSnapshotCountBounded: a CRC-valid image whose ranking count is
// 2^40 used to reach make([]*Ranking, 0, count) and panic; the count is
// now held to what the remaining bytes could encode.
func TestSnapshotCountBounded(t *testing.T) {
	payload := binary.AppendUvarint([]byte{0, 1}, 1<<40) // shard 0, epoch 1, count 2^40
	payload = append(payload, 2, 1, 6)                   // one real ranking behind it
	_, _, _, err := DecodeSnapshot(sealed(snapMagic, payload))
	if !errors.Is(err, rankings.ErrCorrupt) {
		t.Fatalf("DecodeSnapshot = %v, want ErrCorrupt", err)
	}
}

// TestOldFormatsRefused: generation-1 state is refused by its version
// stamp, never parsed as generation 2.
func TestOldFormatsRefused(t *testing.T) {
	v1 := t.TempDir()
	if err := os.WriteFile(filepath.Join(v1, "wal.meta"), []byte(`{"version":1,"shards":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(v1, Config{Shards: 1}); !errors.Is(err, ErrFormatVersion) {
		t.Fatalf("Open on a version-1 directory = %v, want ErrFormatVersion", err)
	}

	// An RKS1 capture planted as the newest snapshot of a generation-2
	// directory (its own trailing CRC valid, as v1 wrote it) is counted
	// invalid and the older RKS2 capture is used.
	dir := t.TempDir()
	idx, mgr := openAttached(t, dir, 1)
	for _, r := range testutil.RandDataset(rand.New(rand.NewSource(7)), 10, 5, 60) {
		if err := idx.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := mgr.SnapshotAll(idx); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	rks1 := unhex(t, "524b5331"+"00"+"8f4e"+"00"+"7567dc96") // "RKS1", shard 0, epoch 9999, no rankings, CRC-32C
	if err := os.WriteFile(filepath.Join(dir, "shard-000", snapName(9999)), rks1, 0o644); err != nil {
		t.Fatal(err)
	}
	mgr2, err := Open(dir, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	idx2 := shard.New(shard.Config{Shards: 1})
	st, err := mgr2.Recover(idx2)
	if err != nil || st.InvalidSnapshots != 1 || st.SnapshotsLoaded != 1 {
		t.Fatalf("Recover = %+v, %v; want 1 invalid and 1 loaded snapshot", st, err)
	}
	sameContents(t, idx2, idx)
}

// TestReplayRefusesMisroutedRecord: a frame whose id routes to another
// shard is refused and moves nothing — for the follower as for
// recovery, since both replay through ReplayShard.
func TestReplayRefusesMisroutedRecord(t *testing.T) {
	idx := shard.New(shard.Config{Shards: 4})
	var id int64
	for idx.ShardOf(id) == 2 {
		id++
	}
	frame := appendRecord(nil, Record{Op: OpInsert, Epoch: 1, ID: id, Items: []rankings.Item{1, 2, 3}})
	if applied, _, err := ReplayShard(idx, 2, frame); err == nil || applied != 0 {
		t.Fatalf("ReplayShard applied %d records, err %v; want a routing refusal", applied, err)
	}
	if idx.Len() != 0 {
		t.Fatalf("refused replay left %d rankings", idx.Len())
	}
	for i, e := range idx.Epochs() {
		if e != 0 {
			t.Fatalf("refused replay moved shard %d to epoch %d", i, e)
		}
	}
	if _, _, err := ReplayShard(idx, 2, appendRecord(nil, Record{Op: OpDelete, Epoch: 3, ID: id})); !errors.Is(err, ErrGap) {
		t.Fatalf("ReplayShard across a gap = %v, want ErrGap", err)
	}
	if _, _, err := ReplayShard(idx, 4, nil); err == nil {
		t.Fatal("ReplayShard accepted shard 4 of 4")
	}
}

// FuzzWALFrames feeds arbitrary bytes to the replay as a segment file
// or replication delta would arrive, and as the payload of one
// well-framed record.
func FuzzWALFrames(f *testing.F) {
	f.Add(unhex(f, goldenInsert+goldenDelete))
	f.Add(unhex(f, goldenInsert)[1:9]) // the insert's payload
	f.Add(unhex(f, goldenDelete)[1:5])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		idx := shard.New(shard.Config{Shards: 1})
		wirecheck.Decoder(t, data, func(data []byte) ([]byte, error) {
			ReplayShard(idx, 0, data) // whatever it makes of data, it must not panic
			var out []byte
			_, _, err := scan(data, 0, func(rec Record) error {
				out = appendRecord(out, rec)
				return nil
			})
			return out, err
		})
		wirecheck.Decoder(t, sealed("", data), func(frame []byte) ([]byte, error) {
			rec, _, err := decodeRecord(frame)
			return appendRecord(nil, rec), err
		})
	})
}

// FuzzSnapshotImage does the same for snapshot images.
func FuzzSnapshotImage(f *testing.F) {
	golden := unhex(f, goldenSnapshot)
	f.Add(golden)
	f.Add(golden[5 : len(golden)-4]) // its payload
	f.Add([]byte("RKS1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		decode := func(image []byte) ([]byte, error) {
			sh, epoch, rs, err := DecodeSnapshot(image)
			return EncodeSnapshot(sh, epoch, rs), err
		}
		wirecheck.Decoder(t, data, decode)
		wirecheck.Decoder(t, sealed(snapMagic, data), decode)
	})
}
