package flow

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Dataset is a lazily evaluated, partitioned, immutable collection — the
// engine's RDD. Transformations build new Datasets; nothing executes
// until an action (Collect, Count) or a downstream shuffle
// forces materialization. Narrow transformations are pipelined: a chain
// of Map/Filter/FlatMap over one partition runs as a single task
// without intermediate materialization of the whole dataset.
type Dataset[T any] struct {
	ctx     *Context
	parts   int
	compute func(p int) ([]T, error)

	// cache, when non-nil, memoizes computed partitions (RDD.cache()).
	cache *cacheState[T]

	// owner maps a partition index to its ownership token; token mod
	// world size selects the worker responsible for computing that
	// partition in distributed mode. Nil means the identity (partition
	// index itself). Narrow transformations inherit their parent's
	// owner since partitions stay index-aligned; Union delegates to the
	// underlying side so a worker never computes another worker's
	// shuffle bucket; shuffle outputs reset to the identity.
	owner func(p int) int
}

type cacheState[T any] struct {
	once  []sync.Once
	parts [][]T
	errs  []error
}

// Context returns the engine context the dataset is bound to.
func (d *Dataset[T]) Context() *Context { return d.ctx }

// Parallelize distributes data over parts partitions (round-robin by
// block) — the engine's entry point for driver-side collections. A
// non-positive parts uses the context default.
func Parallelize[T any](ctx *Context, data []T, parts int) *Dataset[T] {
	if parts <= 0 {
		parts = ctx.cfg.DefaultPartitions
	}
	n := len(data)
	return &Dataset[T]{
		ctx:   ctx,
		parts: parts,
		compute: func(p int) ([]T, error) {
			lo := n * p / parts
			hi := n * (p + 1) / parts
			return data[lo:hi], nil
		},
	}
}

// ownerOf resolves the ownership token of a partition (see the owner
// field).
func (d *Dataset[T]) ownerOf(p int) int {
	if d.owner != nil {
		return d.owner(p)
	}
	return p
}

// ownedPartitions lists the partitions this worker is responsible for
// computing — all of them in a world of one.
func (d *Dataset[T]) ownedPartitions() []int {
	self, world := d.ctx.world()
	ps := make([]int, 0, (d.parts+world-1)/world)
	for p := 0; p < d.parts; p++ {
		if world == 1 || d.ownerOf(p)%world == self {
			ps = append(ps, p)
		}
	}
	return ps
}

// partition evaluates one partition, consulting the cache if enabled.
func (d *Dataset[T]) partition(p int) ([]T, error) {
	if p < 0 || p >= d.parts {
		return nil, fmt.Errorf("flow: partition %d out of range [0,%d)", p, d.parts)
	}
	if c := d.cache; c != nil {
		c.once[p].Do(func() {
			c.parts[p], c.errs[p] = d.compute(p)
		})
		return c.parts[p], c.errs[p]
	}
	return d.compute(p)
}

// Cache returns a dataset whose partitions are computed at most once
// and then served from memory — Spark's rdd.cache(), the mechanism the
// paper's iterative pipeline leans on for intermediate results.
func (d *Dataset[T]) Cache() *Dataset[T] {
	c := &cacheState[T]{
		once:  make([]sync.Once, d.parts),
		parts: make([][]T, d.parts),
		errs:  make([]error, d.parts),
	}
	return &Dataset[T]{
		ctx:     d.ctx,
		parts:   d.parts,
		compute: d.partition,
		cache:   c,
		owner:   d.owner,
	}
}

// Map applies f to every element.
func Map[T, U any](d *Dataset[T], f func(T) U) *Dataset[U] {
	return &Dataset[U]{
		ctx:   d.ctx,
		parts: d.parts,
		owner: d.owner,
		compute: func(p int) ([]U, error) {
			in, err := d.partition(p)
			if err != nil {
				return nil, err
			}
			out := make([]U, len(in))
			for i, v := range in {
				out[i] = f(v)
			}
			return out, nil
		},
	}
}

// FlatMap applies f to every element and concatenates the results.
func FlatMap[T, U any](d *Dataset[T], f func(T) []U) *Dataset[U] {
	return &Dataset[U]{
		ctx:   d.ctx,
		parts: d.parts,
		owner: d.owner,
		compute: func(p int) ([]U, error) {
			in, err := d.partition(p)
			if err != nil {
				return nil, err
			}
			var out []U
			for _, v := range in {
				out = append(out, f(v)...)
			}
			return out, nil
		},
	}
}

// Filter keeps the elements for which keep returns true.
func Filter[T any](d *Dataset[T], keep func(T) bool) *Dataset[T] {
	return &Dataset[T]{
		ctx:   d.ctx,
		parts: d.parts,
		owner: d.owner,
		compute: func(p int) ([]T, error) {
			in, err := d.partition(p)
			if err != nil {
				return nil, err
			}
			var out []T
			for _, v := range in {
				if keep(v) {
					out = append(out, v)
				}
			}
			return out, nil
		},
	}
}

// MapPartitions transforms a whole partition at once — the hook the
// similarity-join algorithms use to run their per-partition joins. f
// receives the partition index and its records.
func MapPartitions[T, U any](d *Dataset[T], f func(p int, in []T) ([]U, error)) *Dataset[U] {
	return &Dataset[U]{
		ctx:   d.ctx,
		parts: d.parts,
		owner: d.owner,
		compute: func(p int) ([]U, error) {
			in, err := d.partition(p)
			if err != nil {
				return nil, err
			}
			return f(p, in)
		},
	}
}

// Union concatenates two datasets (partitions of a followed by
// partitions of b), without a shuffle — Spark's rdd.union.
func Union[T any](a, b *Dataset[T]) *Dataset[T] {
	if a.ctx != b.ctx {
		panic("flow: union across contexts")
	}
	return &Dataset[T]{
		ctx:   a.ctx,
		parts: a.parts + b.parts,
		owner: func(p int) int {
			if p < a.parts {
				return a.ownerOf(p)
			}
			return b.ownerOf(p - a.parts)
		},
		compute: func(p int) ([]T, error) {
			if p < a.parts {
				return a.partition(p)
			}
			return b.partition(p - a.parts)
		},
	}
}

// Collect materializes the whole dataset on the driver, preserving
// partition order. Every worker computes the partitions it owns — all of
// them in a world of one — and in distributed mode all-gathers the rest,
// so each worker's driver sees the identical full dataset.
func (d *Dataset[T]) Collect() ([]T, error) {
	owned := d.ownedPartitions()
	outs := make([][]T, d.parts)
	err := d.ctx.tracedDo("collect", len(owned), func(i int) error {
		part, err := d.partition(owned[i])
		if err != nil {
			return err
		}
		outs[owned[i]] = part
		return nil
	})
	if err != nil {
		return nil, err
	}
	if d.ctx.distributed() {
		if err := gatherPartitions(d.ctx, d.ctx.nextCollective(), owned, outs); err != nil {
			return nil, err
		}
	}
	var total int
	for _, o := range outs {
		total += len(o)
	}
	all := make([]T, 0, total)
	for _, o := range outs {
		all = append(all, o...)
	}
	return all, nil
}

// Count returns the number of elements: the sum over the partitions this
// worker owns, and in distributed mode the all-gathered sum of every
// worker's share.
func (d *Dataset[T]) Count() (int64, error) {
	owned := d.ownedPartitions()
	var n atomic.Int64
	err := d.ctx.tracedDo("count", len(owned), func(i int) error {
		part, err := d.partition(owned[i])
		if err != nil {
			return err
		}
		n.Add(int64(len(part)))
		return nil
	})
	if err != nil {
		return 0, err
	}
	if d.ctx.distributed() {
		return gatherSum(d.ctx, d.ctx.nextCollective(), n.Load())
	}
	return n.Load(), nil
}
