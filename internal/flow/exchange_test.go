package flow

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// testWorld wires N in-process SPMD workers together with one buffered
// channel per (collective, src, dst) triple — the minimal conforming
// Exchanger, used to validate the distributed engine without a network.
type testWorld struct {
	n     int
	mu    sync.Mutex
	boxes map[testSlot]chan []byte
}

type testSlot struct {
	id       int64
	src, dst int
}

func newTestWorld(n int) *testWorld {
	return &testWorld{n: n, boxes: make(map[testSlot]chan []byte)}
}

func (tw *testWorld) box(id int64, src, dst int) chan []byte {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	key := testSlot{id, src, dst}
	ch, ok := tw.boxes[key]
	if !ok {
		ch = make(chan []byte, 1)
		tw.boxes[key] = ch
	}
	return ch
}

func (tw *testWorld) exchanger(self int) Exchanger {
	return &testExchanger{world: tw, self: self}
}

type testExchanger struct {
	world *testWorld
	self  int
}

func (e *testExchanger) World() (int, int) { return e.self, e.world.n }

func (e *testExchanger) Alltoall(id int64, outbound [][]byte) ([][]byte, error) {
	if len(outbound) != e.world.n {
		return nil, fmt.Errorf("outbound size %d != world %d", len(outbound), e.world.n)
	}
	for w := range outbound {
		if w == e.self {
			continue
		}
		e.world.box(id, e.self, w) <- outbound[w]
	}
	inbound := make([][]byte, e.world.n)
	inbound[e.self] = outbound[e.self]
	for w := range inbound {
		if w == e.self {
			continue
		}
		inbound[w] = <-e.world.box(id, w, e.self)
	}
	return inbound, nil
}

// runWorld executes the same driver program on every worker of an
// n-worker world and returns each worker's result.
func runWorld[T any](t *testing.T, n int, driver func(ctx *Context) (T, error)) []T {
	t.Helper()
	tw := newTestWorld(n)
	results := make([]T, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := NewContext(Config{Workers: 2, DefaultPartitions: 5, Exchange: tw.exchanger(w)})
			results[w], errs[w] = driver(ctx)
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	return results
}

type testPairKey struct{ A, B int64 }

func TestDistributedReduceByKeyMatchesLocal(t *testing.T) {
	data := make([]KV[int, int], 0, 200)
	for i := 0; i < 200; i++ {
		data = append(data, KV[int, int]{K: i % 17, V: i})
	}
	driver := func(ctx *Context) ([]KV[int, int], error) {
		d := Parallelize(ctx, data, 4)
		out, err := ReduceByKey(d, 6, func(a, b int) int { return a + b }).Collect()
		if err != nil {
			return nil, err
		}
		sort.Slice(out, func(i, j int) bool { return out[i].K < out[j].K })
		return out, nil
	}
	local, err := driver(NewContext(Config{Workers: 2}))
	if err != nil {
		t.Fatal(err)
	}
	for w, got := range runWorld(t, 3, driver) {
		if !reflect.DeepEqual(got, local) {
			t.Fatalf("worker %d: distributed %v != local %v", w, got, local)
		}
	}
}

func TestDistributedWorkersAgreeWithoutSorting(t *testing.T) {
	// Collect must return the identical slice (same order) on every
	// worker, or SPMD drivers diverge.
	data := make([]KV[int64, int32], 0, 300)
	for i := 0; i < 300; i++ {
		data = append(data, KV[int64, int32]{K: int64(i % 23), V: int32(i)})
	}
	results := runWorld(t, 4, func(ctx *Context) ([]KV[int64, []int32], error) {
		return GroupByKey(Parallelize(ctx, data, 7), 9).Collect()
	})
	for w := 1; w < len(results); w++ {
		if !reflect.DeepEqual(results[w], results[0]) {
			t.Fatalf("worker %d collect order diverges from worker 0", w)
		}
	}
	// And the grouped content matches the local engine, order aside.
	local, err := GroupByKey(Parallelize(NewContext(Config{}), data, 7), 9).Collect()
	if err != nil {
		t.Fatal(err)
	}
	canon := func(in []KV[int64, []int32]) []KV[int64, []int32] {
		out := append([]KV[int64, []int32](nil), in...)
		sort.Slice(out, func(i, j int) bool { return out[i].K < out[j].K })
		for i := range out {
			vs := append([]int32(nil), out[i].V...)
			sort.Slice(vs, func(a, b int) bool { return vs[a] < vs[b] })
			out[i].V = vs
		}
		return out
	}
	if !reflect.DeepEqual(canon(results[0]), canon(local)) {
		t.Fatalf("distributed groups != local groups")
	}
}

func TestDistributedJoinUnionDistinct(t *testing.T) {
	// Exercises CoGroup/Join, Union's ownership delegation (a union of
	// two post-shuffle datasets feeding a third shuffle) and struct
	// shuffle keys through the reflection hash.
	left := make([]KV[testPairKey, int], 0, 120)
	right := make([]KV[testPairKey, string], 0, 120)
	for i := 0; i < 120; i++ {
		k := testPairKey{A: int64(i % 11), B: int64(i % 7)}
		left = append(left, KV[testPairKey, int]{K: k, V: i})
		right = append(right, KV[testPairKey, string]{K: k, V: fmt.Sprint(i % 5)})
	}
	driver := func(ctx *Context) ([]string, error) {
		l := Parallelize(ctx, left, 3)
		r := Parallelize(ctx, right, 5)
		j := Join(l, r, 4)
		tagged := Map(j, func(kv KV[testPairKey, Joined[int, string]]) string {
			return fmt.Sprintf("%d/%d:%d:%s", kv.K.A, kv.K.B, kv.V.Left%3, kv.V.Right)
		})
		extra := Map(Parallelize(ctx, left[:40], 2), func(kv KV[testPairKey, int]) string {
			return fmt.Sprintf("x%d/%d", kv.K.A, kv.V%3)
		})
		u := Union(tagged, extra)
		out, err := Distinct(u, 6).Collect()
		if err != nil {
			return nil, err
		}
		sort.Strings(out)
		return out, nil
	}
	local, err := driver(NewContext(Config{Workers: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if len(local) == 0 {
		t.Fatal("empty local result; test is vacuous")
	}
	for w, got := range runWorld(t, 3, driver) {
		if !reflect.DeepEqual(got, local) {
			t.Fatalf("worker %d: distributed result diverges (%d vs %d elems)", w, len(got), len(local))
		}
	}
}

func TestDistributedCount(t *testing.T) {
	data := make([]int, 157)
	for i := range data {
		data[i] = i + 1
	}
	driver := func(ctx *Context) (int64, error) {
		d := Parallelize(ctx, data, 6)
		return Filter(d, func(v int) bool { return v%2 == 1 }).Count()
	}
	local, err := driver(NewContext(Config{}))
	if err != nil {
		t.Fatal(err)
	}
	for w, got := range runWorld(t, 3, driver) {
		if got != local {
			t.Fatalf("worker %d: %+v != local %+v", w, got, local)
		}
	}
}

func TestDistributedEmptyDataset(t *testing.T) {
	driver := func(ctx *Context) (int64, error) {
		d := Parallelize(ctx, []KV[int, int]{}, 3)
		g := GroupByKey(d, 4)
		if _, err := g.Collect(); err != nil {
			return 0, err
		}
		return g.Count()
	}
	for w, got := range runWorld(t, 3, driver) {
		if got != 0 {
			t.Fatalf("worker %d: count %d on empty dataset", w, got)
		}
	}
}

func TestDistributedShuffleClampsPartitionsToWorld(t *testing.T) {
	// A 2-partition shuffle in a 4-worker world must widen to 4
	// partitions so every worker owns one and joins the exchange;
	// otherwise non-owners would hang forever waiting for frames.
	data := []KV[int, int]{{1, 1}, {2, 2}, {3, 3}}
	results := runWorld(t, 4, func(ctx *Context) (int, error) {
		sh := PartitionByKey(Parallelize(ctx, data, 2), 2)
		if _, err := sh.Collect(); err != nil {
			return 0, err
		}
		return sh.parts, nil
	})
	for w, got := range results {
		if got != 4 {
			t.Fatalf("worker %d: partitions %d, want clamp to world size 4", w, got)
		}
	}
}

func TestStableKeyHashFastPathsMatchReflection(t *testing.T) {
	// The type-switch fast paths must agree with what a peer computing
	// the same key through any path gets — they are the same function,
	// but guard the int-width conversions against sign mistakes.
	if stableKeyHash(int32(-5)) != stableKeyHash(int64(-5)) {
		t.Fatal("negative int32 and int64 keys hash differently")
	}
	if stableKeyHash(int(41)) != stableKeyHash(int64(41)) {
		t.Fatal("int and int64 keys hash differently")
	}
	if stableKeyHash(testPairKey{1, 2}) == stableKeyHash(testPairKey{2, 1}) {
		t.Fatal("field order ignored by struct hash")
	}
}

func TestStableKeyHashRejectsReferenceKinds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("pointer shuffle key must panic")
		}
	}()
	v := 5
	stableKeyHash(&v)
}
