package wal

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"rankjoin/internal/obs"
)

// ErrClosed reports an append or sync against a closed (or crashed)
// log.
var ErrClosed = errors.New("wal: log closed")

const (
	segPrefix = "seg-"
	segSuffix = ".wal"
)

func segName(n int) string { return fmt.Sprintf("%s%08d%s", segPrefix, n, segSuffix) }

// parseSegName inverts segName, rejecting anything else in the dir.
func parseSegName(name string) (int, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	var n int
	if _, err := fmt.Sscanf(name, segPrefix+"%08d"+segSuffix, &n); err != nil {
		return 0, false
	}
	return n, true
}

// log is one shard's append-only record stream, split into numbered
// segment files. Appends go through a user-space buffer; the sync
// waiter that finds no fsync in flight flushes and fsyncs for everyone
// whose bytes are in the buffer by then (see sync). LSNs are cumulative
// byte offsets across all segments, so "durable up to" is a single
// watermark comparison.
type log struct {
	dir      string
	interval time.Duration // least time between the starts of two commits; 0 = none

	mu       sync.Mutex
	cond     *sync.Cond // broadcast when synced, err or leading moves
	f        *os.File
	w        *bufio.Writer
	seg      int       // current segment number
	appended int64     // bytes accepted (buffered or written), cumulative
	synced   int64     // bytes known durable, cumulative
	err      error     // sticky failure; poisons the log (ErrClosed after crash)
	closed   bool      // no appends, no new leader
	leading  bool      // a sync waiter is sleeping its window or fsyncing
	began    time.Time // when the last commit started its flush

	// beforeFsync, when a test sets it, runs in the leader between its
	// flush and its fsync, with mu released.
	beforeFsync func()

	// Telemetry, read by Manager.Stats.
	records  int64 // guarded by mu
	fsyncs   int64 // guarded by mu (written only by the leader)
	fsyncDur *obs.Histogram
}

// openLog opens a fresh segment (max existing + 1) in dir. Recovery
// has already read — and possibly truncated — older segments; starting
// a new one means we never append after a truncated tail. fsyncDur is
// the owner's shared fsync-latency histogram (nil is a no-op sink).
func openLog(dir string, interval time.Duration, fsyncDur *obs.Histogram) (*log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open log: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	next := 1
	if len(segs) > 0 {
		next = segs[len(segs)-1] + 1
	}
	l := &log{
		dir:      dir,
		interval: interval,
		seg:      next,
		fsyncDur: fsyncDur,
	}
	l.cond = sync.NewCond(&l.mu)
	if err := l.openSegmentLocked(); err != nil {
		return nil, err
	}
	return l, nil
}

// listSegments returns the segment numbers present in dir, ascending.
func listSegments(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: list segments: %w", err)
	}
	var segs []int
	for _, e := range ents {
		if n, ok := parseSegName(e.Name()); ok {
			segs = append(segs, n)
		}
	}
	sort.Ints(segs)
	return segs, nil
}

func (l *log) openSegmentLocked() error {
	f, err := os.OpenFile(filepath.Join(l.dir, segName(l.seg)),
		os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open segment: %w", err)
	}
	l.f = f
	l.w = bufio.NewWriterSize(f, 1<<16)
	return nil
}

// append frames rec into the buffer and returns the LSN to hand to
// sync. The caller holds the owning shard's write lock, which is what
// keeps epochs in the stream strictly increasing.
func (l *log) append(rec Record) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.err != nil {
		return 0, l.err
	}
	// Encoded straight into the writer's free space: no frame buffer of
	// its own, no copy unless the record outgrows what is free.
	frame := appendRecord(l.w.AvailableBuffer(), rec)
	if _, err := l.w.Write(frame); err != nil {
		l.err = fmt.Errorf("wal: append: %w", err)
		l.cond.Broadcast()
		return 0, l.err
	}
	l.appended += int64(len(frame))
	l.records++
	return l.appended, nil
}

// sync blocks until everything up to lsn is fsynced or the log fails.
// This is the group-commit rendezvous, and it has no goroutine of its
// own: the waiter that finds no fsync in flight leads one. If the last
// commit began at least interval ago the log is idle and the leader
// commits at once; otherwise it first sleeps the rest of that window,
// so a busy log fsyncs at most once per interval and every append that
// lands meanwhile shares the fsync. The fsync runs outside the lock so
// appends keep flowing.
func (l *log) sync(lsn int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.synced < lsn {
		if l.err != nil {
			return l.err
		}
		if l.leading || l.closed {
			// A leader or close will move synced; crash sets err.
			l.cond.Wait()
			continue
		}
		l.leading = true
		if wait := l.interval - time.Since(l.began); wait > 0 {
			l.mu.Unlock()
			time.Sleep(wait)
			l.mu.Lock()
		}
		// A log closed meanwhile gets no commit from its leader: close
		// flushes and fsyncs for every waiter itself, crash has set err.
		if !l.closed && l.err == nil {
			l.began = time.Now()
			target := l.appended
			if err := l.w.Flush(); err != nil {
				l.err = fmt.Errorf("wal: flush: %w", err)
			} else {
				f := l.f
				l.mu.Unlock()
				if l.beforeFsync != nil {
					l.beforeFsync()
				}
				fsyncing := time.Now()
				serr := f.Sync()
				took := time.Since(fsyncing)
				l.mu.Lock()
				l.fsyncs++
				l.fsyncDur.Observe(took.Microseconds())
				if f != l.f && errors.Is(serr, os.ErrClosed) {
					// rotate closed the segment under this fsync — after
					// its own fsync had moved synced past target.
					serr = nil
				}
				if serr != nil && l.err == nil {
					l.err = fmt.Errorf("wal: fsync: %w", serr)
				}
				if l.err == nil && l.synced < target {
					l.synced = target
				}
			}
		}
		l.leading = false
		l.cond.Broadcast()
	}
	return nil
}

// flushForRead pushes buffered frames to the OS (no fsync) so a reader
// opening the segment files sees every appended record — the
// replication path's pre-scan barrier.
func (l *log) flushForRead() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	if err := l.w.Flush(); err != nil {
		l.err = fmt.Errorf("wal: flush: %w", err)
		l.cond.Broadcast()
		return l.err
	}
	return nil
}

// rotate makes everything appended so far durable, closes the current
// segment and starts the next one, returning the number of the first
// segment of the NEW stream. Called under the owning shard's read lock
// (see Shard.SnapshotAnd), so no append can interleave: the boundary
// is exact.
func (l *log) rotate() (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.err != nil {
		return 0, l.err
	}
	if err := l.w.Flush(); err != nil {
		l.err = fmt.Errorf("wal: rotate flush: %w", err)
		l.cond.Broadcast()
		return 0, l.err
	}
	if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("wal: rotate fsync: %w", err)
		l.cond.Broadcast()
		return 0, l.err
	}
	if l.synced < l.appended {
		l.synced = l.appended
	}
	l.cond.Broadcast()
	if err := l.f.Close(); err != nil {
		l.err = fmt.Errorf("wal: rotate close: %w", err)
		return 0, l.err
	}
	l.seg++
	if err := l.openSegmentLocked(); err != nil {
		l.err = err
		return 0, err
	}
	return l.seg, nil
}

// dropSegmentsBefore deletes segment files numbered < keep — called
// after a snapshot at the rotation boundary makes them redundant.
func (l *log) dropSegmentsBefore(keep int) error {
	segs, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	for _, n := range segs {
		if n >= keep {
			break
		}
		if err := os.Remove(filepath.Join(l.dir, segName(n))); err != nil {
			return fmt.Errorf("wal: drop segment: %w", err)
		}
	}
	return nil
}

// close flushes, fsyncs and closes the log — the clean-shutdown path —
// once a leader in flight has finished or stepped aside. Pending sync
// waiters whose bytes make it to disk return nil.
func (l *log) close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	for l.leading {
		l.cond.Wait()
	}
	var first error
	if l.err == nil {
		if err := l.w.Flush(); err != nil {
			first = err
		} else if err := l.f.Sync(); err != nil {
			first = err
		} else {
			l.synced = l.appended
		}
	}
	if err := l.f.Close(); err != nil && first == nil {
		first = err
	}
	l.cond.Broadcast()
	if first != nil {
		first = fmt.Errorf("wal: close: %w", first)
		if l.err == nil {
			l.err = first
		}
	}
	return first
}

// crash abandons the log the way SIGKILL would: the user-space buffer
// is discarded unflushed (bytes already written to the OS survive, as
// they would in the page cache) and every waiter is released with
// ErrClosed. Test and harness hook.
func (l *log) crash() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	if l.err == nil {
		l.err = ErrClosed
	}
	l.cond.Broadcast()
	for l.leading {
		l.cond.Wait()
	}
	l.f.Close() // buffered-but-unflushed frames die with l.w
}
