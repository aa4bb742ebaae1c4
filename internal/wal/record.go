// Package wal gives the sharded dynamic index a durability and
// replication substrate: one write-ahead log per shard (CRC-framed
// insert/delete records stamped with the shard epoch, group-commit
// fsync), periodic epoch snapshots written with atomic renames,
// crash-recovery replay on boot (newest valid snapshot, then every WAL
// record above its epoch, torn tails truncated), and the frames and
// images the replication endpoint ships to read-only followers — the
// bytes recovery reads, replayed by the function recovery uses.
//
// The shard epoch is the only cursor: it advances by exactly one per
// acknowledged mutation (see internal/shard), so "replay everything
// after epoch E" is a contiguity check, and a snapshot named by its
// capture epoch composes with any WAL suffix above that epoch.
// Byte layouts: DESIGN.md "Wire and disk formats".
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"

	"rankjoin/internal/rankings"
	"rankjoin/internal/shard"
)

// ErrGap reports a record that does not continue the epoch sequence:
// history is missing between what the shard holds and what the frames
// offer. Unlike a torn tail it is never a crash artifact.
var ErrGap = errors.New("wal: epoch gap")

// Record is one durable mutation: the operation, whose shard.Op value
// is the frame's first byte, the epoch the owning shard reached by
// applying it, and the subject. Items is nil for deletes. Frame is
// the bytes a decoded record came from — what a segment holds and what
// a follower replays — and nil for a record built in memory.
type Record struct {
	Op    shard.Op
	Epoch uint64
	ID    int64
	Items []rankings.Item
	Frame []byte
}

// appendRecord appends rec's frame to buf. The payload is op (byte),
// epoch (uvarint), then the ranking for an insert or the id (varint)
// for a delete.
func appendRecord(buf []byte, rec Record) []byte {
	start := len(buf)
	buf = append(buf, byte(rec.Op))
	buf = binary.AppendUvarint(buf, rec.Epoch)
	if rec.Op == shard.OpInsert {
		r := rankings.Ranking{ID: rec.ID, Items: rec.Items}
		buf = r.AppendWire(buf)
	} else {
		buf = binary.AppendVarint(buf, rec.ID)
	}
	return rankings.EndFrame(buf, start)
}

// decodeRecord decodes one frame from the head of data, returning the
// record and the frame's size. rankings.ErrTorn: data ends mid-frame;
// rankings.ErrCorrupt: the frame is complete but invalid.
func decodeRecord(data []byte) (rec Record, size int, err error) {
	payload, size, err := rankings.ReadFrame(data)
	if err != nil {
		return rec, 0, err
	}
	var n, m int // bytes of the epoch, bytes of the subject
	if len(payload) > 0 {
		rec.Op = shard.Op(payload[0])
		rec.Epoch, n = rankings.Uvarint(payload[1:])
	}
	if n > 0 && rec.Op == shard.OpInsert {
		var r rankings.Ranking
		m, err = r.DecodeWire(payload[1+n:])
		rec.ID, rec.Items = r.ID, r.Items
	} else if n > 0 && rec.Op == shard.OpDelete {
		rec.ID, m = rankings.Varint(payload[1+n:])
	}
	if err == nil && (m <= 0 || 1+n+m != len(payload)) { // includes an unknown op
		err = rankings.ErrCorrupt
	}
	if err != nil {
		return rec, 0, fmt.Errorf("malformed record at epoch %d: %w", rec.Epoch, err)
	}
	rec.Frame = data[:size]
	return rec, size, nil
}

// scan walks frames — WAL records back to back, as a segment file or a
// replication delta holds them — and hands yield every record above
// epoch after, in order. Records at or below after are skipped (a
// snapshot or an earlier replay covers them); one that does not
// continue the sequence is ErrGap. It returns the epoch reached and the
// offset of the first byte it did not consume; err is the frame's
// (ErrTorn, ErrCorrupt), ErrGap or yield's.
func scan(frames []byte, after uint64, yield func(Record) error) (last uint64, off int, err error) {
	for last = after; off < len(frames); {
		rec, n, err := decodeRecord(frames[off:])
		if err != nil {
			return last, off, err
		}
		if rec.Epoch > last {
			if rec.Epoch != last+1 {
				return last, off, fmt.Errorf("%w: have %d, next record %d", ErrGap, last, rec.Epoch)
			}
			if err := yield(rec); err != nil {
				return last, off, err
			}
			last = rec.Epoch
		}
		off += n
	}
	return last, off, nil
}

// ReplayShard applies frames to shard i of idx above the epoch the
// shard is at: the one way logged mutations reach an index. Recovery
// feeds it segment files and a follower its leader's delta, so both
// refuse a gap and a record that routes to another shard. It returns
// the records applied and the offset of the first byte not consumed;
// what was applied before an error stays, a valid prefix of history.
func ReplayShard(idx *shard.Index, i int, frames []byte) (applied, off int, err error) {
	if i < 0 || i >= idx.NumShards() {
		return 0, 0, fmt.Errorf("wal: replay shard %d out of range [0,%d)", i, idx.NumShards())
	}
	_, off, err = scan(frames, idx.Epochs()[i], func(rec Record) error {
		if idx.ShardOf(rec.ID) != i {
			return fmt.Errorf("record for id %d routes to shard %d", rec.ID, idx.ShardOf(rec.ID))
		}
		if rec.Op == shard.OpDelete {
			if !idx.ApplyDelete(rec.ID, rec.Epoch) {
				return fmt.Errorf("epoch %d deletes absent id %d", rec.Epoch, rec.ID)
			}
		} else if err := idx.ApplyInsert(&rankings.Ranking{ID: rec.ID, Items: rec.Items}, rec.Epoch); err != nil {
			return err // the decoder validated the ranking; this is the index's verdict (k)
		}
		applied++
		return nil
	})
	if err != nil {
		err = fmt.Errorf("wal: replay shard %d: %w", i, err)
	}
	return applied, off, err
}
