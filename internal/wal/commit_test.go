package wal

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"rankjoin/internal/shard"
	"rankjoin/internal/testutil"
)

// openWindow is openAttached with the group-commit window chosen by the
// caller.
func openWindow(t *testing.T, dir string, shards int, every time.Duration) (*shard.Index, *Manager) {
	t.Helper()
	mgr, err := Open(dir, Config{Shards: shards, FsyncEvery: every})
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

// insertN inserts ids [lo, lo+n) and reports the first failure.
func insertN(idx *shard.Index, lo int64, n int) error {
	rng := rand.New(rand.NewSource(lo))
	for id := lo; id < lo+int64(n); id++ {
		if err := idx.Insert(testutil.RandRanking(rng, id, 5, 60)); err != nil {
			return err
		}
	}
	return nil
}

// TestCommitIdleDoesNotWait: the first commit of an idle log fsyncs at
// once; one right behind it sleeps out the window the first one opened.
func TestCommitIdleDoesNotWait(t *testing.T) {
	const window = 500 * time.Millisecond
	idx, mgr := openWindow(t, t.TempDir(), 1, window)
	defer mgr.Close()

	start := time.Now()
	if err := insertN(idx, 1, 1); err != nil {
		t.Fatal(err)
	}
	if first := time.Since(start); first >= window/2 {
		t.Fatalf("insert into an idle log took %v; it slept the %v window", first, window)
	}
	if err := insertN(idx, 2, 1); err != nil {
		t.Fatal(err)
	}
	// The first commit began after start, so the second cannot begin
	// before start + window.
	if both := time.Since(start); both < window {
		t.Fatalf("two commits began within %v of each other, window is %v", both, window)
	}
	if st := mgr.Stats(); st.Fsyncs != 2 || st.DurableBytes != st.AppendedBytes {
		t.Fatalf("stats %+v, want 2 fsyncs and everything durable", st)
	}
}

// TestCommitGroupsUnderLoad: concurrent writers to one busy shard share
// fsyncs, and the log fsyncs at most once per window.
func TestCommitGroupsUnderLoad(t *testing.T) {
	const (
		window  = 5 * time.Millisecond
		writers = 16
		each    = 40
	)
	idx, mgr := openWindow(t, t.TempDir(), 1, window)
	defer mgr.Close()

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := insertN(idx, int64(w*each), each); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	st := mgr.Stats()
	if st.Records != writers*each {
		t.Fatalf("%d records, want %d", st.Records, writers*each)
	}
	if st.Records < 2*st.Fsyncs {
		t.Errorf("%d records over %d fsyncs: group commit did not group", st.Records, st.Fsyncs)
	}
	if most := int64(elapsed/window) + 2; st.Fsyncs > most {
		t.Errorf("%d fsyncs in %v, want at most one per %v window (%d)", st.Fsyncs, elapsed, window, most)
	}
}

// TestCommitEveryRequestWithoutWindow: FsyncEvery 0 still fsyncs once
// per commit request.
func TestCommitEveryRequestWithoutWindow(t *testing.T) {
	idx, mgr := openWindow(t, t.TempDir(), 1, 0)
	defer mgr.Close()
	const n = 20
	if err := insertN(idx, 1, n); err != nil {
		t.Fatal(err)
	}
	if st := mgr.Stats(); st.Fsyncs != n {
		t.Fatalf("%d fsyncs for %d sequential commits, want one each", st.Fsyncs, n)
	}
}

// parkWaiters commits one insert (opening a window), then starts n
// writers that pile up behind a leader sleeping that window out, and
// returns once all n have appended. The channel yields their results.
func parkWaiters(t *testing.T, idx *shard.Index, mgr *Manager, n int) <-chan error {
	t.Helper()
	if err := insertN(idx, 1, 1); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, n)
	for w := 0; w < n; w++ {
		go func(w int) { errs <- insertN(idx, int64(100+w), 1) }(w)
	}
	for deadline := time.Now().Add(5 * time.Second); mgr.Stats().Records < int64(1+n); {
		if time.Now().After(deadline) {
			t.Fatalf("writers did not append: %+v", mgr.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	return errs
}

// TestCommitCloseReleasesWaiters: Close while a leader sleeps its
// window releases every waiter with nil, their bytes on disk, and
// leaves no goroutine behind — a log has none of its own.
func TestCommitCloseReleasesWaiters(t *testing.T) {
	const waiters = 4
	dir := t.TempDir()
	before := runtime.NumGoroutine()
	idx, mgr := openWindow(t, dir, 1, 500*time.Millisecond)
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("Open started %d goroutines", n-before)
	}
	errs := parkWaiters(t, idx, mgr, waiters)
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < waiters; w++ {
		if err := <-errs; err != nil {
			t.Errorf("waiter released by Close with %v, want nil", err)
		}
	}
	// Only the first insert's leader fsynced: the second was asleep and
	// stepped aside for Close, which made everything durable itself.
	if st := mgr.Stats(); st.Fsyncs != 1 || st.DurableBytes != st.AppendedBytes {
		t.Fatalf("stats after Close %+v, want 1 leader fsync and everything durable", st)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before Open", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}

	idx2, mgr2 := openWindow(t, dir, 1, 0)
	defer mgr2.Close()
	sameContents(t, idx2, idx)
	if idx2.Len() != 1+waiters {
		t.Fatalf("recovered %d rankings, want %d", idx2.Len(), 1+waiters)
	}
}

// TestCommitCrashReleasesWaiters: Crash releases the same waiters with
// ErrClosed, and opening more shards starts no more goroutines.
func TestCommitCrashReleasesWaiters(t *testing.T) {
	const waiters = 4
	before := runtime.NumGoroutine()
	idx, mgr := openWindow(t, t.TempDir(), 16, 500*time.Millisecond)
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("Open of 16 shards started %d goroutines", n-before)
	}
	mgr.Crash()

	idx, mgr = openWindow(t, t.TempDir(), 1, 500*time.Millisecond)
	errs := parkWaiters(t, idx, mgr, waiters)
	mgr.Crash()
	for w := 0; w < waiters; w++ {
		if err := <-errs; !errors.Is(err, ErrClosed) {
			t.Errorf("waiter released by Crash with %v, want ErrClosed", err)
		}
	}
	if err := insertN(idx, 500, 1); !errors.Is(err, ErrClosed) {
		t.Errorf("insert after Crash = %v, want ErrClosed", err)
	}
}

// TestRotateUnderLeaderFsync: a snapshot that rotates the segment
// between a leader's flush and its fsync used to leave the leader
// fsyncing a closed file and poison a log whose every byte rotate had
// just made durable.
func TestRotateUnderLeaderFsync(t *testing.T) {
	dir := t.TempDir()
	idx, mgr := openWindow(t, dir, 1, 0)
	var once sync.Once
	mgr.logs[0].beforeFsync = func() {
		once.Do(func() {
			if err := mgr.SnapshotAll(idx); err != nil {
				t.Error(err)
			}
		})
	}
	if err := insertN(idx, 1, 3); err != nil {
		t.Fatalf("insert beside a rotation: %v", err)
	}
	if st := mgr.Stats(); st.Snapshots != 1 || st.DurableBytes != st.AppendedBytes {
		t.Fatalf("stats %+v, want 1 snapshot and everything durable", st)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	idx2, mgr2 := openWindow(t, dir, 1, 0)
	defer mgr2.Close()
	sameContents(t, idx2, idx)
}
