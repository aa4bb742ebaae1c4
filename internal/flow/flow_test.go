package flow_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"rankjoin/internal/flow"
)

func ints(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func sorted[T int | string](xs []T) []T {
	c := append([]T(nil), xs...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c
}

func TestParallelizeCollectRoundTrip(t *testing.T) {
	for _, parts := range []int{1, 2, 3, 7, 16, 100} {
		ctx := flow.NewContext(flow.Config{Workers: 4})
		d := flow.Parallelize(ctx, ints(57), parts)
		got, err := d.Collect()
		if err != nil {
			t.Fatal(err)
		}
		want := ints(57)
		if len(got) != len(want) {
			t.Fatalf("parts=%d: collected %d, want %d", parts, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("parts=%d: order not preserved at %d", parts, i)
			}
		}
	}
}

func TestParallelizeEmptyAndDefaultParts(t *testing.T) {
	ctx := flow.NewContext(flow.Config{})
	d := flow.Parallelize(ctx, []int(nil), 0)
	got, err := d.Collect()
	if err != nil || len(got) != 0 {
		t.Errorf("empty collect: %v, %v", got, err)
	}
	n, err := d.Count()
	if err != nil || n != 0 {
		t.Errorf("empty count: %v, %v", n, err)
	}
}

func TestMapFilterFlatMapPipeline(t *testing.T) {
	ctx := flow.NewContext(flow.Config{Workers: 3})
	d := flow.Parallelize(ctx, ints(100), 7)
	sq := flow.Map(d, func(x int) int { return x * x })
	even := flow.Filter(sq, func(x int) bool { return x%2 == 0 })
	dup := flow.FlatMap(even, func(x int) []int { return []int{x, x} })
	got, err := dup.Collect()
	if err != nil {
		t.Fatal(err)
	}
	var want []int
	for x := 0; x < 100; x++ {
		if x*x%2 == 0 {
			want = append(want, x*x, x*x)
		}
	}
	if fmt.Sprint(sorted(got)) != fmt.Sprint(sorted(want)) {
		t.Fatalf("pipeline mismatch: %d vs %d elements", len(got), len(want))
	}
}

func TestMapPartitionsSeesEveryIndexOnce(t *testing.T) {
	ctx := flow.NewContext(flow.Config{Workers: 4})
	d := flow.Parallelize(ctx, ints(40), 9)
	tagged := flow.MapPartitions(d, func(p int, in []int) ([]string, error) {
		out := make([]string, len(in))
		for i, v := range in {
			out[i] = fmt.Sprintf("%d:%d", p, v)
		}
		return out, nil
	})
	got, err := tagged.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 40 {
		t.Fatalf("got %d records", len(got))
	}
	seen := map[string]bool{}
	for _, s := range got {
		if seen[s] {
			t.Fatalf("duplicate record %s", s)
		}
		seen[s] = true
	}
}

func TestUnion(t *testing.T) {
	ctx := flow.NewContext(flow.Config{Workers: 2})
	a := flow.Parallelize(ctx, []int{1, 2, 3}, 2)
	b := flow.Parallelize(ctx, []int{4, 5}, 3)
	u := flow.Union(a, b)
	got, err := u.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(sorted(got)) != "[1 2 3 4 5]" {
		t.Errorf("union = %v", got)
	}
}

func TestGroupByKeyCompleteAndColocated(t *testing.T) {
	ctx := flow.NewContext(flow.Config{Workers: 4})
	rng := rand.New(rand.NewSource(1))
	var kvs []flow.KV[int, int]
	want := map[int][]int{}
	for i := 0; i < 500; i++ {
		k, v := rng.Intn(37), i
		kvs = append(kvs, flow.KV[int, int]{K: k, V: v})
		want[k] = append(want[k], v)
	}
	g := flow.GroupByKey(flow.Parallelize(ctx, kvs, 11), 5)
	got, err := g.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("groups: %d, want %d", len(got), len(want))
	}
	for _, kv := range got {
		if fmt.Sprint(sorted(kv.V)) != fmt.Sprint(sorted(want[kv.K])) {
			t.Fatalf("group %d = %v, want %v", kv.K, kv.V, want[kv.K])
		}
	}
}

func TestReduceByKeyMatchesSequential(t *testing.T) {
	ctx := flow.NewContext(flow.Config{Workers: 4})
	rng := rand.New(rand.NewSource(2))
	var kvs []flow.KV[string, int]
	want := map[string]int{}
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("k%d", rng.Intn(50))
		v := rng.Intn(100)
		kvs = append(kvs, flow.KV[string, int]{K: k, V: v})
		want[k] += v
	}
	r := flow.ReduceByKey(flow.Parallelize(ctx, kvs, 13), 7, func(a, b int) int { return a + b })
	got, err := r.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("keys: %d, want %d", len(got), len(want))
	}
	for _, kv := range got {
		if kv.V != want[kv.K] {
			t.Fatalf("key %s: %d, want %d", kv.K, kv.V, want[kv.K])
		}
	}
}

func TestCoGroupAndJoin(t *testing.T) {
	ctx := flow.NewContext(flow.Config{Workers: 4})
	a := flow.Parallelize(ctx, []flow.KV[int, string]{
		{K: 1, V: "a1"}, {K: 1, V: "a2"}, {K: 2, V: "a3"}, {K: 4, V: "a4"},
	}, 3)
	b := flow.Parallelize(ctx, []flow.KV[int, string]{
		{K: 1, V: "b1"}, {K: 2, V: "b2"}, {K: 2, V: "b3"}, {K: 3, V: "b4"},
	}, 2)

	cg, err := flow.CoGroup(a, b, 4).Collect()
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[int]flow.CoGrouped[string, string]{}
	for _, kv := range cg {
		byKey[kv.K] = kv.V
	}
	if len(byKey) != 4 {
		t.Fatalf("cogroup keys = %d, want 4", len(byKey))
	}
	if g := byKey[1]; len(g.Left) != 2 || len(g.Right) != 1 {
		t.Errorf("key 1 cogroup = %+v", g)
	}
	if g := byKey[3]; len(g.Left) != 0 || len(g.Right) != 1 {
		t.Errorf("key 3 cogroup = %+v", g)
	}
	if g := byKey[4]; len(g.Left) != 1 || len(g.Right) != 0 {
		t.Errorf("key 4 cogroup = %+v", g)
	}

	j, err := flow.Join(a, b, 4).Collect()
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, kv := range j {
		rows = append(rows, fmt.Sprintf("%d:%s-%s", kv.K, kv.V.Left, kv.V.Right))
	}
	want := []string{"1:a1-b1", "1:a2-b1", "2:a3-b2", "2:a3-b3"}
	if fmt.Sprint(sorted(rows)) != fmt.Sprint(sorted(want)) {
		t.Errorf("join rows = %v, want %v", sorted(rows), sorted(want))
	}
}

func TestDistinct(t *testing.T) {
	ctx := flow.NewContext(flow.Config{Workers: 4})
	var data []int
	for i := 0; i < 300; i++ {
		data = append(data, i%40)
	}
	got, err := flow.Distinct(flow.Parallelize(ctx, data, 9), 5).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(sorted(got)) != fmt.Sprint(ints(40)) {
		t.Errorf("distinct = %v", sorted(got))
	}
}

func TestDistinctBy(t *testing.T) {
	ctx := flow.NewContext(flow.Config{Workers: 2})
	type rec struct {
		ID   int
		Note string
	}
	data := []rec{{1, "x"}, {2, "y"}, {1, "z"}, {3, "w"}, {2, "q"}}
	got, err := flow.DistinctBy(flow.Parallelize(ctx, data, 3), 2,
		func(r rec) int { return r.ID }).Collect()
	if err != nil {
		t.Fatal(err)
	}
	ids := map[int]int{}
	for _, r := range got {
		ids[r.ID]++
	}
	if len(got) != 3 || ids[1] != 1 || ids[2] != 1 || ids[3] != 1 {
		t.Errorf("distinctBy = %v", got)
	}
}

func TestKeys(t *testing.T) {
	ctx := flow.NewContext(flow.Config{Workers: 2})
	d := flow.Parallelize(ctx, []flow.KV[int, int]{{K: 1, V: 10}, {K: 2, V: 20}}, 2)
	ks, _ := flow.Keys(d).Collect()
	if fmt.Sprint(sorted(ks)) != "[1 2]" {
		t.Errorf("keys=%v", ks)
	}
}

func TestCacheComputesOnce(t *testing.T) {
	ctx := flow.NewContext(flow.Config{Workers: 4})
	var calls atomic.Int64
	d := flow.Parallelize(ctx, ints(50), 5)
	counted := flow.Map(d, func(x int) int {
		calls.Add(1)
		return x
	}).Cache()
	if _, err := counted.Collect(); err != nil {
		t.Fatal(err)
	}
	if _, err := counted.Count(); err != nil {
		t.Fatal(err)
	}
	if _, err := flow.Map(counted, func(x int) int { return x }).Collect(); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 50 {
		t.Errorf("map ran %d times, want 50 (cache miss)", calls.Load())
	}

	// Without cache, three actions recompute three times.
	calls.Store(0)
	uncached := flow.Map(d, func(x int) int {
		calls.Add(1)
		return x
	})
	uncached.Collect()
	uncached.Count()
	uncached.Collect()
	if calls.Load() != 150 {
		t.Errorf("uncached map ran %d times, want 150", calls.Load())
	}
}

func TestErrorPropagation(t *testing.T) {
	ctx := flow.NewContext(flow.Config{Workers: 3})
	boom := errors.New("boom")
	d := flow.Parallelize(ctx, ints(20), 4)
	bad := flow.MapPartitions(d, func(p int, in []int) ([]int, error) {
		if p == 2 {
			return nil, boom
		}
		return in, nil
	})
	if _, err := bad.Collect(); !errors.Is(err, boom) {
		t.Errorf("collect err = %v, want boom", err)
	}
	// Through a shuffle as well.
	keyed := flow.Map(bad, func(x int) flow.KV[int, int] { return flow.KV[int, int]{K: x, V: x} })
	if _, err := flow.GroupByKey(keyed, 3).Collect(); !errors.Is(err, boom) {
		t.Errorf("shuffled collect err = %v, want boom", err)
	}
}

// TestShuffleDeterminismAcrossWorkersAndPartitions: the same logical
// program produces the same result set regardless of engine sizing.
func TestShuffleDeterminismAcrossWorkersAndPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var kvs []flow.KV[int, int]
	for i := 0; i < 2000; i++ {
		kvs = append(kvs, flow.KV[int, int]{K: rng.Intn(100), V: rng.Intn(10)})
	}
	run := func(workers, inParts, outParts int) string {
		ctx := flow.NewContext(flow.Config{Workers: workers})
		r := flow.ReduceByKey(flow.Parallelize(ctx, kvs, inParts), outParts,
			func(a, b int) int { return a + b })
		got, err := r.Collect()
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]string, len(got))
		for i, kv := range got {
			rows[i] = fmt.Sprintf("%d=%d", kv.K, kv.V)
		}
		sort.Strings(rows)
		return fmt.Sprint(rows)
	}
	ref := run(1, 1, 1)
	for _, cfg := range [][3]int{{1, 5, 3}, {4, 5, 3}, {8, 16, 11}, {2, 100, 1}} {
		if got := run(cfg[0], cfg[1], cfg[2]); got != ref {
			t.Errorf("config %v diverged", cfg)
		}
	}
}

// TestSpillEquivalence: with an absurdly small spill threshold every
// bucket round-trips through disk and results are unchanged.
func TestSpillEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var kvs []flow.KV[int, int]
	for i := 0; i < 1000; i++ {
		kvs = append(kvs, flow.KV[int, int]{K: rng.Intn(25), V: i})
	}
	collectGroups := func(ctx *flow.Context) map[int][]int {
		g, err := flow.GroupByKey(flow.Parallelize(ctx, kvs, 7), 4).Collect()
		if err != nil {
			t.Fatal(err)
		}
		out := map[int][]int{}
		for _, kv := range g {
			out[kv.K] = sorted(kv.V)
		}
		return out
	}
	plain := collectGroups(flow.NewContext(flow.Config{Workers: 4}))

	spillCtx := flow.NewContext(flow.Config{Workers: 4, SpillDir: t.TempDir(), SpillThreshold: 1})
	spilled := collectGroups(spillCtx)
	if snap := spillCtx.Snapshot(); snap.SpilledRecords == 0 {
		t.Fatal("expected spilling with threshold 1")
	}
	if err := spillCtx.Close(); err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(spilled) {
		t.Fatalf("group count %d vs %d", len(plain), len(spilled))
	}
	for k, v := range plain {
		if fmt.Sprint(v) != fmt.Sprint(spilled[k]) {
			t.Fatalf("group %d differs with spilling", k)
		}
	}
}

func TestMetricsCounters(t *testing.T) {
	ctx := flow.NewContext(flow.Config{Workers: 2})
	kvs := make([]flow.KV[int, int], 100)
	for i := range kvs {
		kvs[i] = flow.KV[int, int]{K: i % 10, V: i}
	}
	_ = flow.NewBroadcast(ctx, 42)
	g := flow.GroupByKey(flow.Parallelize(ctx, kvs, 4), 4)
	if _, err := g.Collect(); err != nil {
		t.Fatal(err)
	}
	snap := ctx.Snapshot()
	if snap.BroadcastValues != 1 {
		t.Errorf("broadcasts = %d", snap.BroadcastValues)
	}
	if snap.ShuffleRecords != 100 {
		t.Errorf("shuffled = %d, want 100", snap.ShuffleRecords)
	}
	if snap.Tasks == 0 {
		t.Error("no tasks recorded")
	}
	if snap.MaxPartitionRecords <= 0 || snap.MaxPartitionRecords > 100 {
		t.Errorf("max partition = %d", snap.MaxPartitionRecords)
	}
	ctx.ResetMetrics()
	if s := ctx.Snapshot(); s.Tasks != 0 || s.ShuffleRecords != 0 {
		t.Errorf("reset failed: %+v", s)
	}
}

// TestCompositeKeyShuffle exercises struct keys (used by the
// repartitioning technique's (item, subpartition) composite keys).
func TestCompositeKeyShuffle(t *testing.T) {
	type key struct {
		Item int32
		Sub  int
	}
	ctx := flow.NewContext(flow.Config{Workers: 4})
	var kvs []flow.KV[key, int]
	for i := 0; i < 200; i++ {
		kvs = append(kvs, flow.KV[key, int]{K: key{Item: int32(i % 7), Sub: i % 3}, V: i})
	}
	g, err := flow.GroupByKey(flow.Parallelize(ctx, kvs, 6), 5).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != 21 {
		t.Fatalf("composite key groups = %d, want 21", len(g))
	}
	var total int
	for _, kv := range g {
		total += len(kv.V)
	}
	if total != 200 {
		t.Fatalf("records after shuffle = %d, want 200", total)
	}
}
