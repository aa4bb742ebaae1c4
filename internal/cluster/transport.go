package cluster

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"rankjoin/internal/rankings"
)

// Shuffle frames travel between peers as one CRC frame behind a magic
// tag: the job id, the collective id, the sender's rank, and the gob
// payload produced by flow's distributed shuffle (DESIGN.md §15).
// Frames are self-describing, so the receiving inbox can buffer them
// before the local worker for the job has even started.

// frameMagic tags shuffle frame bodies (generation
// rankings.WireVersion); a peer that sends another does not speak this
// protocol version.
const frameMagic = "RKX2"

// maxFrameJobLen bounds the job-id field.
const maxFrameJobLen = 256

// frame is one decoded shuffle message.
type frame struct {
	Job        string
	Collective int64
	Src        int
	Payload    []byte
}

// encodeFrame serializes a frame for the wire.
func encodeFrame(f frame) []byte {
	buf := make([]byte, 0, len(frameMagic)+4*binary.MaxVarintLen64+len(f.Job)+len(f.Payload)+4)
	buf = append(buf, frameMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(f.Job)))
	buf = append(buf, f.Job...)
	buf = binary.AppendVarint(buf, f.Collective)
	buf = binary.AppendUvarint(buf, uint64(f.Src))
	buf = append(buf, f.Payload...)
	return rankings.EndFrame(buf, len(frameMagic))
}

// decodeFrame parses a wire frame. Payload aliases body.
func decodeFrame(body []byte) (frame, error) {
	var f frame
	rest, err := rankings.Unseal(frameMagic, body)
	if err != nil {
		return f, fmt.Errorf("cluster: %w", err)
	}
	jobLen, n := rankings.Uvarint(rest)
	if n <= 0 || jobLen > maxFrameJobLen || jobLen > uint64(len(rest)-n) {
		return f, fmt.Errorf("cluster: frame job length out of bounds")
	}
	f.Job = string(rest[n : n+int(jobLen)])
	rest = rest[n+int(jobLen):]
	if f.Collective, n = rankings.Varint(rest); n <= 0 {
		return f, fmt.Errorf("cluster: frame collective")
	}
	rest = rest[n:]
	src, n := rankings.Uvarint(rest)
	if n <= 0 {
		return f, fmt.Errorf("cluster: frame src")
	}
	f.Src, f.Payload = int(src), rest[n:]
	return f, nil
}

// inbox buffers incoming shuffle frames until the local SPMD worker
// asks for them. Frames for one (job, collective, src) arrive exactly
// once in the happy path; hedged resends are deduplicated keep-first.
// Frames may arrive before the job's worker starts (the coordinator's
// worker races the join-start RPCs), so unknown jobs buffer rather
// than reject; finished jobs leave a tombstone so late or duplicate
// frames are dropped instead of accumulating forever.
type inbox struct {
	mu    sync.Mutex
	slots map[inboxKey]chan []byte
	done  map[string]time.Time // job tombstones
}

type inboxKey struct {
	job        string
	collective int64
	src        int
}

// inboxTombstoneTTL is how long a finished job rejects late frames
// before its tombstone is pruned.
const inboxTombstoneTTL = 10 * time.Minute

func newInbox() *inbox {
	return &inbox{slots: make(map[inboxKey]chan []byte), done: make(map[string]time.Time)}
}

func (ib *inbox) slot(key inboxKey) chan []byte {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	ch, ok := ib.slots[key]
	if !ok {
		ch = make(chan []byte, 1)
		ib.slots[key] = ch
	}
	return ch
}

// put delivers one frame; duplicates and frames for finished jobs are
// dropped. Returns false when dropped.
func (ib *inbox) put(f frame) bool {
	ib.mu.Lock()
	if _, finished := ib.done[f.Job]; finished {
		ib.mu.Unlock()
		return false
	}
	key := inboxKey{job: f.Job, collective: f.Collective, src: f.Src}
	ch, ok := ib.slots[key]
	if !ok {
		ch = make(chan []byte, 1)
		ib.slots[key] = ch
	}
	ib.mu.Unlock()
	select {
	case ch <- f.Payload:
		return true
	default:
		return false // duplicate (hedged resend); keep the first
	}
}

// wait blocks until the frame for key arrives or ctx expires.
func (ib *inbox) wait(ctx context.Context, key inboxKey) ([]byte, error) {
	select {
	case payload := <-ib.slot(key):
		return payload, nil
	case <-ctx.Done():
		return nil, fmt.Errorf("cluster: waiting for shuffle frame job=%s collective=%d src=%d: %w",
			key.job, key.collective, key.src, ctx.Err())
	}
}

// finishJob drops all buffered frames of a job and tombstones it so
// stragglers are rejected. Old tombstones are pruned opportunistically.
func (ib *inbox) finishJob(job string) {
	now := time.Now()
	ib.mu.Lock()
	defer ib.mu.Unlock()
	for key := range ib.slots {
		if key.job == job {
			delete(ib.slots, key)
		}
	}
	ib.done[job] = now
	for j, t := range ib.done {
		if now.Sub(t) > inboxTombstoneTTL {
			delete(ib.done, j)
		}
	}
}

// depth reports the number of buffered frame slots (for status).
func (ib *inbox) depth() int {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	return len(ib.slots)
}
