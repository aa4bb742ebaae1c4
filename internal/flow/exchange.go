package flow

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"

	"rankjoin/internal/obs"
)

// Exchanger connects one flow Context to its peers and turns the
// in-memory shuffle into a wire exchange. With an Exchanger attached
// (Config.Exchange) the engine runs in SPMD mode: every worker in the
// world executes the identical driver program over the identical input,
// partition ownership (partition index mod world size) splits the
// work, wide transformations exchange partitions through Alltoall, and
// actions become all-gathers so every worker retains an identical view
// of the driver state. Because all workers run the same construction
// and action sequence, collective ids — assigned from a single counter
// on the driver goroutine — agree across the world even when execution
// order races, and the transport matches frames by id alone.
type Exchanger interface {
	// World returns this worker's rank and the total number of workers.
	// Both must be constant for the lifetime of the Context.
	World() (self, size int)
	// Alltoall delivers outbound[w] to worker w and returns the frames
	// received from every worker for the same collective id, indexed by
	// source rank. outbound must have world-size entries;
	// outbound[self] is returned as inbound[self] without touching the
	// wire. Alltoall blocks until all world-size frames are available
	// or the transport fails.
	Alltoall(id int64, outbound [][]byte) ([][]byte, error)
}

// splitmixExchange is splitmix64, the avalanche finalizer used for
// architecture-stable key hashing (same constants as internal/shard's
// id router).
func splitmixExchange(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// fnvMix64 folds one 64-bit word into an FNV-1a accumulator a byte at
// a time, keeping the hash independent of host endianness.
func fnvMix64(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (x & 0xff)) * fnvPrime64
		x >>= 8
	}
	return h
}

// stableKeyHash hashes a shuffle key identically on every peer and
// architecture. The in-process engine uses hash/maphash, whose seed is
// per-process random — perfect for one process, useless across a
// cluster where all workers must agree which partition a key belongs
// to. Common kernel key kinds take the fast type-switch path; struct
// keys (pair keys, composite sub-keys) fall back to a reflection walk
// over their fields.
func stableKeyHash[K comparable](key K) uint64 {
	switch k := any(key).(type) {
	case int:
		return splitmixExchange(uint64(int64(k)))
	case int8:
		return splitmixExchange(uint64(int64(k)))
	case int16:
		return splitmixExchange(uint64(int64(k)))
	case int32:
		return splitmixExchange(uint64(int64(k)))
	case int64:
		return splitmixExchange(uint64(k))
	case uint:
		return splitmixExchange(uint64(k))
	case uint32:
		return splitmixExchange(uint64(k))
	case uint64:
		return splitmixExchange(k)
	case string:
		h := fnvOffset64
		for i := 0; i < len(k); i++ {
			h = (h ^ uint64(k[i])) * fnvPrime64
		}
		return splitmixExchange(h)
	}
	h := stableHashValue(fnvOffset64, reflect.ValueOf(key))
	return splitmixExchange(h)
}

// stableHashValue folds a reflected key into an FNV-1a accumulator.
// Keys must be built from fixed-size scalars, strings, arrays and
// structs thereof; reference kinds have no stable cross-process
// identity and panic — a programming error in the pipeline, not a
// runtime condition.
func stableHashValue(h uint64, v reflect.Value) uint64 {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return fnvMix64(h, 1)
		}
		return fnvMix64(h, 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return fnvMix64(h, uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return fnvMix64(h, v.Uint())
	case reflect.Float32, reflect.Float64:
		return fnvMix64(h, math.Float64bits(v.Float()))
	case reflect.Complex64, reflect.Complex128:
		c := v.Complex()
		return fnvMix64(fnvMix64(h, math.Float64bits(real(c))), math.Float64bits(imag(c)))
	case reflect.String:
		s := v.String()
		h = fnvMix64(h, uint64(len(s)))
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * fnvPrime64
		}
		return h
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			h = stableHashValue(h, v.Index(i))
		}
		return h
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			h = fnvMix64(h, uint64(i))
			h = stableHashValue(h, v.Field(i))
		}
		return h
	default:
		panic(fmt.Sprintf("flow: %s (kind %s) is not usable as a distributed shuffle key", v.Type(), v.Kind()))
	}
}

// stablePartitionOf is partitionOf with the architecture-stable hash —
// the routing function of every distributed shuffle.
func stablePartitionOf[K comparable](key K, parts int) int {
	return int(stableKeyHash(key) % uint64(parts))
}

// encodeGob serializes one frame payload. Each payload carries its own
// gob stream (type definitions included) so frames are self-contained
// across processes.
func encodeGob[T any](v T) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("flow: encode exchange frame: %w", err)
	}
	return buf.Bytes(), nil
}

func decodeGob[T any](data []byte, v *T) error {
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(v); err != nil {
		return fmt.Errorf("flow: decode exchange frame: %w", err)
	}
	return nil
}

// shuffleChunk carries the records of one (source partition,
// destination partition) cell of a distributed shuffle.
type shuffleChunk[T any] struct {
	Src, Dst int
	Recs     []T
}

// gatherChunk carries one whole partition of an all-gather (Collect).
type gatherChunk[T any] struct {
	P    int
	Recs []T
}

// runShuffleDistributed is the over-the-wire variant of runShuffle:
// each worker routes the records of its owned source partitions with
// the stable hash, groups them into one gob frame per destination
// worker, runs an Alltoall, and reassembles its owned destination
// buckets in (source partition, destination) order — so bucket
// contents are identical on every worker regardless of frame arrival
// order.
func runShuffleDistributed[K comparable, V any](d *Dataset[KV[K, V]], parts int, st *shuffleState[KV[K, V]]) {
	ctx := d.ctx
	ex := ctx.cfg.Exchange
	self, world := ex.World()
	owned := d.ownedPartitions()

	sp := ctx.Tracer().StartTask("shuffle.exchange",
		obs.Int("collective", st.id), obs.Int("sources", int64(len(owned))),
		obs.Int("partitions", int64(parts)))
	defer sp.End()

	chunks := make([][]shuffleChunk[KV[K, V]], world)
	var mu sync.Mutex
	st.err = ctx.parallelDo(len(owned), func(i int) error {
		src := owned[i]
		in, err := d.partition(src)
		if err != nil {
			return err
		}
		local := make([][]KV[K, V], parts)
		for _, kv := range in {
			dst := stablePartitionOf(kv.K, parts)
			local[dst] = append(local[dst], kv)
		}
		ctx.metrics.ShuffleRecords.Add(int64(len(in)))
		mu.Lock()
		for dst, recs := range local {
			if len(recs) == 0 {
				continue
			}
			w := dst % world
			chunks[w] = append(chunks[w], shuffleChunk[KV[K, V]]{Src: src, Dst: dst, Recs: recs})
		}
		mu.Unlock()
		return nil
	})
	if st.err != nil {
		return
	}

	frames := make([][]byte, world)
	for w := range chunks {
		sortChunks(chunks[w])
		frames[w], st.err = encodeGob(chunks[w])
		if st.err != nil {
			return
		}
	}
	inbound, err := ex.Alltoall(st.id, frames)
	if err != nil {
		st.err = fmt.Errorf("flow: shuffle collective %d: %w", st.id, err)
		return
	}

	var all []shuffleChunk[KV[K, V]]
	for src, payload := range inbound {
		var cs []shuffleChunk[KV[K, V]]
		if src == self {
			cs = chunks[self]
		} else if err := decodeGob(payload, &cs); err != nil {
			st.err = fmt.Errorf("flow: shuffle collective %d, frame from worker %d: %w", st.id, src, err)
			return
		}
		all = append(all, cs...)
	}
	sortChunks(all)

	buckets := make([][]KV[K, V], parts)
	for _, c := range all {
		if c.Dst%world != self {
			st.err = fmt.Errorf("flow: shuffle collective %d: received partition %d not owned by worker %d/%d",
				st.id, c.Dst, self, world)
			return
		}
		buckets[c.Dst] = append(buckets[c.Dst], c.Recs...)
	}
	partHist := ctx.Histogram("shuffle/partition_records")
	var total int64
	for dst := self; dst < parts; dst += world {
		n := int64(len(buckets[dst]))
		partHist.Observe(n)
		total += n
	}
	sp.SetInt("records", total)
	st.buckets = buckets
}

func sortChunks[T any](cs []shuffleChunk[T]) {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Src != cs[j].Src {
			return cs[i].Src < cs[j].Src
		}
		return cs[i].Dst < cs[j].Dst
	})
}

// allGather sends frame to every worker and returns what each worker
// sent, indexed by rank.
func (c *Context) allGather(action string, id int64, frame []byte) ([][]byte, error) {
	_, world := c.world()
	out := make([][]byte, world)
	for w := range out {
		out[w] = frame
	}
	inbound, err := c.cfg.Exchange.Alltoall(id, out)
	if err != nil {
		return nil, fmt.Errorf("flow: %s collective %d: %w", action, id, err)
	}
	return inbound, nil
}

// gatherPartitions is the wire half of Collect: this worker's owned
// partitions of outs go to every peer and theirs fill the rest, so each
// worker ends with the identical outs and driver code downstream stays
// in lockstep.
func gatherPartitions[T any](ctx *Context, id int64, owned []int, outs [][]T) error {
	chunks := make([]gatherChunk[T], 0, len(owned))
	for _, p := range owned {
		chunks = append(chunks, gatherChunk[T]{P: p, Recs: outs[p]})
	}
	frame, err := encodeGob(chunks)
	if err != nil {
		return err
	}
	inbound, err := ctx.allGather("collect", id, frame)
	if err != nil {
		return err
	}
	self, _ := ctx.world()
	for w, payload := range inbound {
		if w == self {
			continue
		}
		var cs []gatherChunk[T]
		if err := decodeGob(payload, &cs); err != nil {
			return fmt.Errorf("flow: collect collective %d, frame from worker %d: %w", id, w, err)
		}
		for _, c := range cs {
			if c.P < 0 || c.P >= len(outs) {
				return fmt.Errorf("flow: collect collective %d: partition %d out of range", id, c.P)
			}
			outs[c.P] = c.Recs
		}
	}
	return nil
}

// gatherSum is the wire half of Count: every worker's local count,
// summed on every worker.
func gatherSum(ctx *Context, id int64, local int64) (int64, error) {
	frame, err := encodeGob(local)
	if err != nil {
		return 0, err
	}
	inbound, err := ctx.allGather("count", id, frame)
	if err != nil {
		return 0, err
	}
	var n int64
	for w, payload := range inbound {
		var c int64
		if err := decodeGob(payload, &c); err != nil {
			return 0, fmt.Errorf("flow: count collective %d, frame from worker %d: %w", id, w, err)
		}
		n += c
	}
	return n, nil
}
