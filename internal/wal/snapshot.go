package wal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"rankjoin/internal/rankings"
)

// A snapshot file (one per shard per capture, named
// snap-<epoch:016x>.snap) holds one snapshot image — the same bytes a
// leader ships to a follower that needs a whole shard. It becomes
// visible only via rename(2) of a fully fsynced temp file, so a crash
// mid-write leaves at most a *.tmp straggler and the previous snapshot
// intact; the frame's CRC catches torn or bit-rotted files at load,
// which fall back to the next-older capture.

const (
	snapMagic  = "RKS2" // generation rankings.WireVersion
	snapPrefix = "snap-"
	snapSuffix = ".snap"
)

func snapName(epoch uint64) string { return fmt.Sprintf("%s%016x%s", snapPrefix, epoch, snapSuffix) }

func parseSnapName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
		return 0, false
	}
	var e uint64
	if _, err := fmt.Sscanf(name, snapPrefix+"%016x"+snapSuffix, &e); err != nil {
		return 0, false
	}
	return e, true
}

// EncodeSnapshot builds one shard's snapshot image: the magic, then a
// frame holding shard ordinal (uvarint), capture epoch (uvarint) and
// the counted rankings.
func EncodeSnapshot(shard int, epoch uint64, rs []*rankings.Ranking) []byte {
	buf := append(make([]byte, 0, 64+32*len(rs)), snapMagic...)
	buf = binary.AppendUvarint(buf, uint64(shard))
	buf = binary.AppendUvarint(buf, epoch)
	buf = rankings.AppendRankings(buf, rs)
	return rankings.EndFrame(buf, len(snapMagic))
}

// DecodeSnapshot parses and CRC-verifies a snapshot image. An image of
// another format generation (RKS1) is refused by its magic.
func DecodeSnapshot(image []byte) (shard int, epoch uint64, rs []*rankings.Ranking, err error) {
	payload, err := rankings.Unseal(snapMagic, image)
	if err != nil {
		return 0, 0, nil, err
	}
	sh, n := rankings.Uvarint(payload)
	if n <= 0 {
		return 0, 0, nil, fmt.Errorf("%w: snapshot shard", rankings.ErrCorrupt)
	}
	epoch, m := rankings.Uvarint(payload[n:])
	if m <= 0 {
		return 0, 0, nil, fmt.Errorf("%w: snapshot epoch", rankings.ErrCorrupt)
	}
	rs, k, err := rankings.DecodeRankings(payload[n+m:])
	if err != nil {
		return 0, 0, nil, fmt.Errorf("snapshot shard %d epoch %d: %w", sh, epoch, err)
	}
	if n+m+k != len(payload) {
		return 0, 0, nil, fmt.Errorf("%w: trailing snapshot bytes", rankings.ErrCorrupt)
	}
	return int(sh), epoch, rs, nil
}

// writeSnapshot durably publishes a shard dump into dir: temp file,
// fsync, rename, fsync dir.
func writeSnapshot(dir string, shard int, epoch uint64, rs []*rankings.Ranking) error {
	data := EncodeSnapshot(shard, epoch, rs)
	tmp, err := os.CreateTemp(dir, snapPrefix+"*.tmp")
	if err != nil {
		return fmt.Errorf("wal: snapshot temp: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op once renamed
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("wal: snapshot write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("wal: snapshot fsync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("wal: snapshot close: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, snapName(epoch))); err != nil {
		return fmt.Errorf("wal: snapshot rename: %w", err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: open dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: fsync dir: %w", err)
	}
	return nil
}

// listSnapshots returns the capture epochs present in dir, ascending.
func listSnapshots(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: list snapshots: %w", err)
	}
	var es []uint64
	for _, e := range ents {
		if ep, ok := parseSnapName(e.Name()); ok {
			es = append(es, ep)
		}
	}
	sort.Slice(es, func(i, j int) bool { return es[i] < es[j] })
	return es, nil
}

// loadNewestSnapshot reads the highest-epoch valid snapshot in dir,
// falling back across corrupt captures. ok=false means no usable
// snapshot exists (an empty shard starts at epoch 0). invalid reports
// how many captures failed their CRC or structure checks.
func loadNewestSnapshot(dir string, wantShard int) (rs []*rankings.Ranking, epoch uint64, ok bool, invalid int, err error) {
	es, err := listSnapshots(dir)
	if err != nil {
		return nil, 0, false, 0, err
	}
	for i := len(es) - 1; i >= 0; i-- {
		data, rerr := os.ReadFile(filepath.Join(dir, snapName(es[i])))
		if rerr != nil {
			return nil, 0, false, invalid, fmt.Errorf("wal: read snapshot: %w", rerr)
		}
		sh, epoch, rs, derr := DecodeSnapshot(data)
		if derr != nil || sh != wantShard || epoch != es[i] {
			invalid++
			continue
		}
		return rs, epoch, true, invalid, nil
	}
	return nil, 0, false, invalid, nil
}

// dropSnapshotsBefore deletes captures older than keep.
func dropSnapshotsBefore(dir string, keep uint64) error {
	es, err := listSnapshots(dir)
	if err != nil {
		return err
	}
	for _, e := range es {
		if e >= keep {
			break
		}
		if err := os.Remove(filepath.Join(dir, snapName(e))); err != nil {
			return fmt.Errorf("wal: drop snapshot: %w", err)
		}
	}
	return nil
}
