package flow

import (
	"fmt"
	"hash/maphash"
	"sync"
	"time"

	"rankjoin/internal/obs"
)

// KV is a key-value record, the unit of all wide (shuffling)
// transformations.
type KV[K comparable, V any] struct {
	K K
	V V
}

// hashSeed is shared by every shuffle in the process so that equal keys
// always hash identically: two datasets shuffled to the same partition
// count are automatically co-partitioned, which CoGroup and Join rely
// on.
var hashSeed = maphash.MakeSeed()

// partitionOf routes a key inside one process. Collect and Count treat
// local execution as a world of one; the shuffle does not, and keeps
// this second router beside stablePartitionOf on purpose: the hash every
// peer must agree on reflects over struct keys (Pair, CPair, subKey),
// a tax every local Distinct would pay for agreement it does not need.
func partitionOf[K comparable](key K, parts int) int {
	return int(maphash.Comparable(hashSeed, key) % uint64(parts))
}

// shuffleState materializes a hash-partitioned exchange exactly once.
type shuffleState[T any] struct {
	once    sync.Once
	err     error
	buckets [][]T
	// id is the collective id of this shuffle, assigned at
	// graph-construction time; zero outside distributed mode.
	id int64
}

// runShuffle evaluates all source partitions of d, routing each record
// to its destination bucket by hash of the key. Scatter and gather are
// fused: a counting pass tags every record with its destination, the
// destination buckets are then allocated at their exact final size, and
// each source writes its records straight into a disjoint window of the
// target bucket. Every record is copied exactly once and no
// intermediate per-(source, destination) bucket matrix is retained —
// roughly halving both the copies and the peak memory of the
// two-barrier scatter-then-gather formulation.
//
// Bucket contents are deterministic: records land in source-partition
// order, each source's records in their original order.
func runShuffle[K comparable, V any](d *Dataset[KV[K, V]], parts int, st *shuffleState[KV[K, V]]) {
	ctx := d.ctx
	start := time.Now()
	defer func() { ctx.metrics.ShuffleNanos.Add(int64(time.Since(start))) }()

	if ctx.distributed() {
		runShuffleDistributed(d, parts, st)
		return
	}

	// The shuffle span attaches to the driver's current scope — the
	// pipeline phase whose action forced this materialization. All
	// tracing below is nil-safe and free when no tracer is attached.
	sp := ctx.Tracer().StartTask("shuffle",
		obs.Int("sources", int64(d.parts)), obs.Int("partitions", int64(parts)))
	defer sp.End()

	// Pass 1 — scatter plan: materialize each source once, tag every
	// record with its destination (so the hash is computed once) and
	// count per-destination sizes. Records are not copied here.
	ins := make([][]KV[K, V], d.parts)
	tags := make([][]uint32, d.parts)
	counts := make([][]int, d.parts)
	scan := sp.StartChild("shuffle.scan")
	st.err = ctx.parallelDo(d.parts, func(src int) error {
		tsp := scan.StartTask("scan", obs.Int("partition", int64(src)))
		defer tsp.End()
		in, err := d.partition(src)
		if err != nil {
			return err
		}
		tag := make([]uint32, len(in))
		cnt := make([]int, parts)
		for i, kv := range in {
			dst := partitionOf(kv.K, parts)
			tag[i] = uint32(dst)
			cnt[dst]++
		}
		ctx.metrics.ShuffleRecords.Add(int64(len(in)))
		tsp.SetInt("records", int64(len(in)))
		ins[src], tags[src], counts[src] = in, tag, cnt
		return nil
	})
	scan.End()
	if st.err != nil {
		return
	}

	// Exact-size destination buckets, with a disjoint write window per
	// (source, destination) so pass 2 needs no locks.
	offsets := make([][]int, d.parts)
	sizes := make([]int, parts)
	for src := range counts {
		off := make([]int, parts)
		for dst, c := range counts[src] {
			off[dst] = sizes[dst]
			sizes[dst] += c
		}
		offsets[src] = off
	}
	buckets := make([][]KV[K, V], parts)
	partHist := ctx.Histogram("shuffle/partition_records")
	var total int64
	for dst, n := range sizes {
		buckets[dst] = make([]KV[K, V], n)
		partHist.Observe(int64(n))
		total += int64(n)
	}
	sp.SetInt("records", total)

	// Pass 2 — fused scatter+gather: each source writes its records
	// into their final position, then releases its input.
	write := sp.StartChild("shuffle.write")
	st.err = ctx.parallelDo(d.parts, func(src int) error {
		tsp := write.StartTask("write", obs.Int("partition", int64(src)))
		defer tsp.End()
		off := offsets[src]
		tag := tags[src]
		for i, kv := range ins[src] {
			dst := tag[i]
			buckets[dst][off[dst]] = kv
			off[dst]++
		}
		ins[src], tags[src] = nil, nil
		return nil
	})
	write.End()
	if st.err != nil {
		return
	}
	st.buckets = buckets
}

// PartitionByKey redistributes records so that equal keys land in the
// same partition — the raw shuffle every wide transformation builds on.
// A non-positive parts uses the context default.
func PartitionByKey[K comparable, V any](d *Dataset[KV[K, V]], parts int) *Dataset[KV[K, V]] {
	if parts <= 0 {
		parts = d.ctx.cfg.DefaultPartitions
	}
	// In distributed mode every worker must own at least one output
	// partition of every shuffle: ownership is what makes each worker
	// reach the shuffle's sync.Once and join its Alltoall. Results are
	// partition-count invariant (property-tested), so the clamp never
	// changes the answer.
	st := &shuffleState[KV[K, V]]{}
	if d.ctx.distributed() {
		if _, world := d.ctx.world(); parts < world {
			parts = world
		}
		st.id = d.ctx.nextCollective()
	}
	return &Dataset[KV[K, V]]{
		ctx:   d.ctx,
		parts: parts,
		compute: func(p int) ([]KV[K, V], error) {
			st.once.Do(func() { runShuffle(d, parts, st) })
			if st.err != nil {
				return nil, st.err
			}
			if self, world := d.ctx.world(); world > 1 && p%world != self {
				return nil, fmt.Errorf("flow: shuffle partition %d is owned by worker %d, not %d — a distributed pipeline read a non-owned partition", p, p%world, self)
			}
			return st.buckets[p], nil
		},
	}
}

// GroupByKey shuffles and gathers all values of a key into one record.
// Like Spark's groupByKey it materializes each group; prefer
// ReduceByKey when a combiner exists.
func GroupByKey[K comparable, V any](d *Dataset[KV[K, V]], parts int) *Dataset[KV[K, []V]] {
	sh := PartitionByKey(d, parts)
	return MapPartitions(sh, func(_ int, in []KV[K, V]) ([]KV[K, []V], error) {
		groups := make(map[K][]V)
		var order []K
		for _, kv := range in {
			if _, seen := groups[kv.K]; !seen {
				order = append(order, kv.K)
			}
			groups[kv.K] = append(groups[kv.K], kv.V)
		}
		out := make([]KV[K, []V], 0, len(order))
		for _, k := range order {
			out = append(out, KV[K, []V]{K: k, V: groups[k]})
		}
		return out, nil
	})
}

// ReduceByKey merges all values of a key with an associative,
// commutative function, combining map-side before the shuffle (Spark's
// reduceByKey).
func ReduceByKey[K comparable, V any](d *Dataset[KV[K, V]], parts int, merge func(V, V) V) *Dataset[KV[K, V]] {
	combine := func(_ int, in []KV[K, V]) ([]KV[K, V], error) {
		acc := make(map[K]V)
		var order []K
		for _, kv := range in {
			if cur, ok := acc[kv.K]; ok {
				acc[kv.K] = merge(cur, kv.V)
			} else {
				acc[kv.K] = kv.V
				order = append(order, kv.K)
			}
		}
		out := make([]KV[K, V], 0, len(order))
		for _, k := range order {
			out = append(out, KV[K, V]{K: k, V: acc[k]})
		}
		return out, nil
	}
	pre := MapPartitions(d, combine)  // map-side combine
	sh := PartitionByKey(pre, parts)  // exchange
	return MapPartitions(sh, combine) // final merge
}

// CoGrouped carries, for one key, the values from both sides of a
// CoGroup.
type CoGrouped[V, W any] struct {
	Left  []V
	Right []W
}

// CoGroup gathers, per key, all values from both datasets. The two
// inputs are shuffled to the same partition count with the shared hash
// seed, so partitions can be zipped pairwise.
func CoGroup[K comparable, V, W any](a *Dataset[KV[K, V]], b *Dataset[KV[K, W]], parts int) *Dataset[KV[K, CoGrouped[V, W]]] {
	if a.ctx != b.ctx {
		panic("flow: cogroup across contexts")
	}
	if parts <= 0 {
		parts = a.ctx.cfg.DefaultPartitions
	}
	if a.ctx.distributed() {
		// Match PartitionByKey's world-size clamp so the zipped output
		// partition count below agrees with both inner shuffles.
		if _, world := a.ctx.world(); parts < world {
			parts = world
		}
	}
	sa := PartitionByKey(a, parts)
	sb := PartitionByKey(b, parts)
	return &Dataset[KV[K, CoGrouped[V, W]]]{
		ctx:   a.ctx,
		parts: parts,
		compute: func(p int) ([]KV[K, CoGrouped[V, W]], error) {
			la, err := sa.partition(p)
			if err != nil {
				return nil, err
			}
			lb, err := sb.partition(p)
			if err != nil {
				return nil, err
			}
			groups := make(map[K]*CoGrouped[V, W])
			var order []K
			get := func(k K) *CoGrouped[V, W] {
				g, ok := groups[k]
				if !ok {
					g = &CoGrouped[V, W]{}
					groups[k] = g
					order = append(order, k)
				}
				return g
			}
			for _, kv := range la {
				g := get(kv.K)
				g.Left = append(g.Left, kv.V)
			}
			for _, kv := range lb {
				g := get(kv.K)
				g.Right = append(g.Right, kv.V)
			}
			out := make([]KV[K, CoGrouped[V, W]], 0, len(order))
			for _, k := range order {
				out = append(out, KV[K, CoGrouped[V, W]]{K: k, V: *groups[k]})
			}
			return out, nil
		},
	}
}

// Joined is one row of an inner join: a key's pair of values.
type Joined[V, W any] struct {
	Left  V
	Right W
}

// Join computes the inner equi-join of the two datasets on their keys
// (Spark's rdd.join), emitting the cross product of matching values.
func Join[K comparable, V, W any](a *Dataset[KV[K, V]], b *Dataset[KV[K, W]], parts int) *Dataset[KV[K, Joined[V, W]]] {
	cg := CoGroup(a, b, parts)
	return FlatMap(cg, func(kv KV[K, CoGrouped[V, W]]) []KV[K, Joined[V, W]] {
		if len(kv.V.Left) == 0 || len(kv.V.Right) == 0 {
			return nil
		}
		out := make([]KV[K, Joined[V, W]], 0, len(kv.V.Left)*len(kv.V.Right))
		for _, v := range kv.V.Left {
			for _, w := range kv.V.Right {
				out = append(out, KV[K, Joined[V, W]]{K: kv.K, V: Joined[V, W]{Left: v, Right: w}})
			}
		}
		return out
	})
}

// dedupFirstBy keeps the first element per key, preserving order — the
// shared combiner of Distinct and DistinctBy.
func dedupFirstBy[T any, K comparable](in []T, key func(T) K) []T {
	seen := make(map[K]struct{}, len(in))
	out := make([]T, 0, len(in))
	for _, v := range in {
		k := key(v)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, v)
	}
	return out
}

// Distinct removes duplicate elements via a shuffle — the final
// deduplication stage of every algorithm in the paper. Duplicates are
// combined map-side (within each source partition, before the
// exchange), so on duplicate-heavy result sets the shuffle moves only
// one record per distinct value per source partition.
func Distinct[T comparable](d *Dataset[T], parts int) *Dataset[T] {
	pre := MapPartitions(d, func(_ int, in []T) ([]T, error) {
		return dedupFirstBy(in, func(v T) T { return v }), nil
	})
	keyed := Map(pre, func(v T) KV[T, struct{}] { return KV[T, struct{}]{K: v} })
	sh := PartitionByKey(keyed, parts)
	return MapPartitions(sh, func(_ int, in []KV[T, struct{}]) ([]T, error) {
		out := dedupFirstBy(in, func(kv KV[T, struct{}]) T { return kv.K })
		vals := make([]T, len(out))
		for i, kv := range out {
			vals[i] = kv.K
		}
		return vals, nil
	})
}

// DistinctBy removes elements with duplicate keys, keeping the first
// occurrence (in source order) of each key. Like Distinct it combines
// map-side before the exchange; because shuffle buckets preserve
// source order, the surviving representative is the same one the
// unfused shuffle kept.
func DistinctBy[T any, K comparable](d *Dataset[T], parts int, key func(T) K) *Dataset[T] {
	pre := MapPartitions(d, func(_ int, in []T) ([]T, error) {
		return dedupFirstBy(in, key), nil
	})
	keyed := Map(pre, func(v T) KV[K, T] { return KV[K, T]{K: key(v), V: v} })
	sh := PartitionByKey(keyed, parts)
	return MapPartitions(sh, func(_ int, in []KV[K, T]) ([]T, error) {
		out := dedupFirstBy(in, func(kv KV[K, T]) K { return kv.K })
		vals := make([]T, len(out))
		for i, kv := range out {
			vals[i] = kv.V
		}
		return vals, nil
	})
}

// Keys projects the keys of a keyed dataset.
func Keys[K comparable, V any](d *Dataset[KV[K, V]]) *Dataset[K] {
	return Map(d, func(kv KV[K, V]) K { return kv.K })
}
