package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"rankjoin/internal/obs"
	"rankjoin/internal/rankings"
	"rankjoin/internal/shard"
)

// ErrFormatVersion reports a WAL directory of another format generation
// (wal.meta version ≠ rankings.WireVersion); nothing in it is parsed.
var ErrFormatVersion = errors.New("wal: directory format version not supported")

// ErrShardMismatch reports a WAL directory laid out for a different
// shard count than the index being recovered — replaying records into
// the wrong shards would scatter the dataset, so boot must refuse.
var ErrShardMismatch = errors.New("wal: directory shard count does not match index")

// Config sizes a Manager.
type Config struct {
	// Shards is the index's shard count, pinned into the directory's
	// meta file on first open and enforced on every later one.
	Shards int
	// FsyncEvery is the group-commit window: a shard's log starts at
	// most one fsync per window, so a write arriving less than this long
	// after the previous commit began waits out the remainder — sharing
	// its fsync with every write that lands meanwhile — and a write to
	// an idle log is fsynced at once. An acknowledgment is therefore
	// never delayed by more than the window plus its fsync.
	// 0 fsyncs immediately on every commit request.
	FsyncEvery time.Duration
	// SnapshotEvery is the periodic snapshot interval for Start.
	// 0 disables the background loop (SnapshotAll still works).
	SnapshotEvery time.Duration
	// Logger receives recovery and snapshot-loop diagnostics.
	Logger *slog.Logger
}

// Manager owns one directory of per-shard logs and snapshots:
//
//	<dir>/wal.meta                    shard-count pin
//	<dir>/shard-NNN/seg-*.wal         record segments
//	<dir>/shard-NNN/snap-*.snap       epoch snapshots
//
// Lifecycle: Open → Recover (replays into an index) → Attach (installs
// the write hook) → Start (background snapshots) → Close. Recover
// before Attach, or recovery replay would re-log itself.
type Manager struct {
	dir    string
	cfg    Config
	logger *slog.Logger

	logs []*log
	// snapEpochs[i] is the capture epoch of shard i's newest durable
	// snapshot — the floor below which segments have been discarded.
	snapEpochs []atomic.Uint64

	snapshots    atomic.Int64
	snapErrs     atomic.Int64
	lastSnapUnix atomic.Int64  // UnixNano of the last completed sweep
	fsyncDur     obs.Histogram // shared across all shard logs

	startOnce sync.Once
	stop      chan struct{}
	done      chan struct{}
}

type metaFile struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
}

// Open prepares dir for cfg.Shards shards and opens one fresh log
// segment per shard. It does not read old records — call Recover for
// that, before any writes.
func Open(dir string, cfg Config) (*Manager, error) {
	if cfg.Shards <= 0 {
		return nil, fmt.Errorf("wal: shard count %d", cfg.Shards)
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	if err := checkMeta(dir, cfg.Shards); err != nil {
		return nil, err
	}
	m := &Manager{
		dir:        dir,
		cfg:        cfg,
		logger:     cfg.Logger,
		logs:       make([]*log, cfg.Shards),
		snapEpochs: make([]atomic.Uint64, cfg.Shards),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	for i := range m.logs {
		l, err := openLog(m.shardDir(i), cfg.FsyncEvery, &m.fsyncDur)
		if err != nil {
			for j := 0; j < i; j++ {
				m.logs[j].close()
			}
			return nil, err
		}
		m.logs[i] = l
	}
	return m, nil
}

func checkMeta(dir string, shards int) error {
	path := filepath.Join(dir, "wal.meta")
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		blob, merr := json.Marshal(metaFile{Version: rankings.WireVersion, Shards: shards})
		if merr != nil {
			return fmt.Errorf("wal: encode meta: %w", merr)
		}
		if werr := os.WriteFile(path, blob, 0o644); werr != nil {
			return fmt.Errorf("wal: write meta: %w", werr)
		}
		return syncDir(dir)
	}
	if err != nil {
		return fmt.Errorf("wal: read meta: %w", err)
	}
	var meta metaFile
	if err := json.Unmarshal(data, &meta); err != nil {
		return fmt.Errorf("wal: parse meta: %w", err)
	}
	if meta.Version != rankings.WireVersion {
		return fmt.Errorf("%w: directory is version %d, this build reads version %d",
			ErrFormatVersion, meta.Version, rankings.WireVersion)
	}
	if meta.Shards != shards {
		return fmt.Errorf("%w: directory has %d, index has %d",
			ErrShardMismatch, meta.Shards, shards)
	}
	return nil
}

func (m *Manager) shardDir(i int) string {
	return filepath.Join(m.dir, fmt.Sprintf("shard-%03d", i))
}

// RecoveryStats summarizes one boot replay.
type RecoveryStats struct {
	SnapshotsLoaded  int // shards restored from a snapshot
	InvalidSnapshots int // captures skipped on CRC/structure failure
	RecordsReplayed  int
	TornTails        int // segments truncated at a torn or corrupt frame
	Epochs           []uint64
}

// Recover rebuilds idx from disk: per shard, the newest valid snapshot
// (if any) then every WAL record above its epoch, in epoch order with
// a contiguity check. Torn or corrupt frames truncate their segment —
// they are the unacknowledged tail of a crash. Call before Attach and
// before serving.
func (m *Manager) Recover(idx *shard.Index) (RecoveryStats, error) {
	var st RecoveryStats
	if idx.NumShards() != m.cfg.Shards {
		return st, fmt.Errorf("%w: manager has %d, index has %d",
			ErrShardMismatch, m.cfg.Shards, idx.NumShards())
	}
	st.Epochs = make([]uint64, m.cfg.Shards)
	for i := 0; i < m.cfg.Shards; i++ {
		sdir := m.shardDir(i)
		rs, snapEpoch, ok, invalid, err := loadNewestSnapshot(sdir, i)
		st.InvalidSnapshots += invalid
		if err != nil {
			return st, err
		}
		if ok {
			if err := idx.RestoreShard(i, rs, snapEpoch); err != nil {
				return st, fmt.Errorf("wal: restore shard %d: %w", i, err)
			}
			st.SnapshotsLoaded++
		}
		m.snapEpochs[i].Store(snapEpoch)

		applied, torn, err := m.replayShard(idx, i)
		if err != nil {
			return st, err
		}
		st.RecordsReplayed += applied
		st.TornTails += torn
		st.Epochs[i] = idx.Epochs()[i]
	}
	m.logger.Info("wal recovered",
		"snapshots", st.SnapshotsLoaded,
		"invalid_snapshots", st.InvalidSnapshots,
		"records", st.RecordsReplayed,
		"torn_tails", st.TornTails)
	return st, nil
}

// replayShard applies shard i's segments on top of whatever the shard
// holds. The log already points at a fresh segment, so every older
// segment is read-only here; a torn/corrupt frame truncates its file
// in place.
func (m *Manager) replayShard(idx *shard.Index, i int) (applied, torn int, err error) {
	sdir := m.shardDir(i)
	segs, err := listSegments(sdir)
	if err != nil {
		return 0, 0, err
	}
	for _, seg := range segs {
		if seg >= m.logs[i].seg {
			break // the just-opened live segment is empty
		}
		path := filepath.Join(sdir, segName(seg))
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return applied, torn, fmt.Errorf("wal: read segment: %w", rerr)
		}
		n, off, rerr := ReplayShard(idx, i, data)
		applied += n
		if rerr == nil {
			continue
		}
		if !errors.Is(rerr, rankings.ErrTorn) && !errors.Is(rerr, rankings.ErrCorrupt) {
			// A gap or a misrouted record means lost or foreign history,
			// not a crash tail; refuse to silently skip it.
			return applied, torn, rerr
		}
		// The crash tail: cut it off so the file is clean for
		// replication scans, and stop replaying this shard. Any later
		// segment is unreachable history (its epochs can never be
		// contiguous with ours), so drop those too.
		m.logger.Warn("wal segment truncated at invalid frame",
			"shard", i, "segment", seg, "offset", off, "err", rerr)
		if terr := os.Truncate(path, int64(off)); terr != nil {
			return applied, torn, fmt.Errorf("wal: truncate torn tail: %w", terr)
		}
		torn++
		for _, later := range segs {
			if later > seg && later < m.logs[i].seg {
				if rmerr := os.Remove(filepath.Join(sdir, segName(later))); rmerr != nil {
					return applied, torn, fmt.Errorf("wal: drop unreachable segment: %w", rmerr)
				}
			}
		}
		return applied, torn, nil
	}
	return applied, torn, nil
}

// Attach installs the durability hook on idx: every Insert/Delete
// appends its record to the owning shard's log under the shard lock,
// and the returned commit barrier — run by the mutation after
// unlocking — blocks until a group-commit fsync covers it, leading that
// fsync itself when none is in flight. From this point an acknowledged
// write survives kill -9.
func (m *Manager) Attach(idx *shard.Index) {
	idx.SetWriteHook(func(wr shard.WriteRecord) func() error {
		l := m.logs[wr.Shard]
		rec := Record{Op: wr.Op, Epoch: wr.Epoch, ID: wr.ID}
		if wr.Op == shard.OpInsert {
			rec.Items = wr.Ranking.Items
		}
		lsn, err := l.append(rec)
		if err != nil {
			return func() error { return err }
		}
		return func() error { return l.sync(lsn) }
	})
}

// Start launches the background snapshot loop (no-op when
// SnapshotEvery is 0). idx must be the index Recover/Attach used.
func (m *Manager) Start(idx *shard.Index) {
	m.startOnce.Do(func() {
		if m.cfg.SnapshotEvery <= 0 {
			close(m.done)
			return
		}
		go func() {
			defer close(m.done)
			t := time.NewTicker(m.cfg.SnapshotEvery)
			defer t.Stop()
			for {
				select {
				case <-m.stop:
					return
				case <-t.C:
					if err := m.SnapshotAll(idx); err != nil {
						m.logger.Warn("wal snapshot sweep failed", "err", err)
					}
				}
			}
		}()
	})
}

// SnapshotAll captures every shard whose epoch moved since its last
// snapshot. Per shard: capture rankings+epoch and rotate the log under
// one shard-lock hold (the segment boundary IS the snapshot cut),
// durably publish the dump, then discard the segments and captures the
// new snapshot supersedes.
func (m *Manager) SnapshotAll(idx *shard.Index) error {
	var first error
	for i := 0; i < m.cfg.Shards; i++ {
		if err := m.snapshotShard(idx, i); err != nil {
			m.snapErrs.Add(1)
			if first == nil {
				first = err
			}
		}
	}
	m.lastSnapUnix.Store(time.Now().UnixNano())
	return first
}

func (m *Manager) snapshotShard(idx *shard.Index, i int) error {
	if idx.Epochs()[i] == m.snapEpochs[i].Load() {
		return nil // nothing new; keep the old capture and segments
	}
	var (
		newSeg int
		rotErr error
	)
	rs, epoch := idx.SnapshotShard(i, func() {
		newSeg, rotErr = m.logs[i].rotate()
	})
	if rotErr != nil {
		return rotErr
	}
	if err := writeSnapshot(m.shardDir(i), i, epoch, rs); err != nil {
		return err
	}
	m.snapEpochs[i].Store(epoch)
	m.snapshots.Add(1)
	if err := dropSnapshotsBefore(m.shardDir(i), epoch); err != nil {
		return err
	}
	return m.logs[i].dropSegmentsBefore(newSeg)
}

// RecordsSince returns shard i's records with epoch in
// (sinceEpoch, head], verified contiguous — the replication delta,
// which a leader ships as the records' own frames. ok is false when the
// delta cannot be assembled (the span predates the snapshot floor or
// the stream has a gap) and the caller must fall back to a full
// snapshot.
func (m *Manager) RecordsSince(i int, sinceEpoch uint64) (recs []Record, ok bool, err error) {
	if i < 0 || i >= m.cfg.Shards {
		return nil, false, fmt.Errorf("wal: shard %d out of range [0,%d)", i, m.cfg.Shards)
	}
	if sinceEpoch < m.snapEpochs[i].Load() {
		return nil, false, nil // history below the floor is gone
	}
	if err := m.logs[i].flushForRead(); err != nil {
		return nil, false, err
	}
	sdir := m.shardDir(i)
	segs, err := listSegments(sdir)
	if err != nil {
		return nil, false, err
	}
	last := sinceEpoch
	for _, seg := range segs {
		data, rerr := os.ReadFile(filepath.Join(sdir, segName(seg)))
		if rerr != nil {
			return nil, false, fmt.Errorf("wal: read segment: %w", rerr)
		}
		last, _, err = scan(data, last, func(rec Record) error {
			recs = append(recs, rec)
			return nil
		})
		if errors.Is(err, ErrGap) {
			return nil, false, nil
		}
		if err != nil {
			// A reader can observe a partially flushed final frame;
			// the contiguous prefix is still a valid delta.
			return recs, true, nil
		}
	}
	return recs, true, nil
}

// Close stops the snapshot loop and flushes, fsyncs and closes every
// log — the drain path: after Close returns, every acknowledged write
// and every buffered-but-unacknowledged one is on disk.
func (m *Manager) Close() error {
	m.Start(nil) // ensure done is closed even if Start was never called
	select {
	case <-m.stop:
	default:
		close(m.stop)
	}
	<-m.done
	var first error
	for _, l := range m.logs {
		if err := l.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Crash abandons every log the way SIGKILL would — user-space buffers
// are discarded, bytes already handed to the OS survive. The in-
// process stand-in for the real thing in crash-recovery tests.
func (m *Manager) Crash() {
	m.Start(nil)
	select {
	case <-m.stop:
	default:
		close(m.stop)
	}
	<-m.done
	for _, l := range m.logs {
		l.crash()
	}
}

// Stats is the telemetry snapshot /metrics and /statusz export.
type Stats struct {
	Records        int64                 `json:"records"`
	AppendedBytes  int64                 `json:"appended_bytes"`
	DurableBytes   int64                 `json:"durable_bytes"`
	Fsyncs         int64                 `json:"fsyncs"`
	FsyncMicros    obs.HistogramSnapshot `json:"fsync_micros"`
	Snapshots      int64                 `json:"snapshots"`
	SnapshotErrors int64                 `json:"snapshot_errors"`
	// SnapshotAge is the seconds since the last completed snapshot
	// sweep; -1 before the first one.
	SnapshotAge    float64  `json:"snapshot_age_seconds"`
	SnapshotEpochs []uint64 `json:"snapshot_epochs"`
}

// Stats aggregates across shards.
func (m *Manager) Stats() Stats {
	st := Stats{
		Snapshots:      m.snapshots.Load(),
		SnapshotErrors: m.snapErrs.Load(),
		SnapshotAge:    -1,
		SnapshotEpochs: make([]uint64, m.cfg.Shards),
	}
	if t := m.lastSnapUnix.Load(); t > 0 {
		st.SnapshotAge = time.Since(time.Unix(0, t)).Seconds()
	}
	for i, l := range m.logs {
		st.SnapshotEpochs[i] = m.snapEpochs[i].Load()
		l.mu.Lock()
		st.Records += l.records
		st.AppendedBytes += l.appended
		st.DurableBytes += l.synced
		st.Fsyncs += l.fsyncs
		l.mu.Unlock()
	}
	st.FsyncMicros = m.fsyncDur.Snapshot()
	return st
}
