package rankjoin_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"rankjoin"
	"rankjoin/internal/flow"
	"rankjoin/internal/testutil"
)

// memWorld is a minimal in-process flow.Exchanger: one buffered channel
// per (collective, src, dst). It proves the eight public join paths
// run unchanged in SPMD mode; the HTTP transport is internal/cluster's
// job and is certified separately against 50 rankcheck seeds.
type memWorld struct {
	n     int
	mu    sync.Mutex
	boxes map[string]chan []byte
}

func newMemWorld(n int) *memWorld { return &memWorld{n: n, boxes: make(map[string]chan []byte)} }

func (mw *memWorld) box(id int64, src, dst int) chan []byte {
	mw.mu.Lock()
	defer mw.mu.Unlock()
	key := fmt.Sprintf("%d/%d/%d", id, src, dst)
	ch, ok := mw.boxes[key]
	if !ok {
		ch = make(chan []byte, 1)
		mw.boxes[key] = ch
	}
	return ch
}

type memExchanger struct {
	world *memWorld
	self  int
}

func (e *memExchanger) World() (int, int) { return e.self, e.world.n }

func (e *memExchanger) Alltoall(id int64, outbound [][]byte) ([][]byte, error) {
	for w := range outbound {
		if w != e.self {
			e.world.box(id, e.self, w) <- outbound[w]
		}
	}
	inbound := make([][]byte, e.world.n)
	inbound[e.self] = outbound[e.self]
	for w := range inbound {
		if w != e.self {
			inbound[w] = <-e.world.box(id, w, e.self)
		}
	}
	return inbound, nil
}

var _ flow.Exchanger = (*memExchanger)(nil)

// spmdJoin runs the identical join on every worker of an in-process
// world and returns each worker's result.
func spmdJoin(t *testing.T, world int, rs []*rankjoin.Ranking, opts rankjoin.Options) []*rankjoin.Result {
	t.Helper()
	mw := newMemWorld(world)
	results := make([]*rankjoin.Result, world)
	errs := make([]error, world)
	var wg sync.WaitGroup
	for w := 0; w < world; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			eng := rankjoin.NewEngine(rankjoin.EngineConfig{
				Workers:  2,
				Exchange: &memExchanger{world: mw, self: w},
			})
			results[w], errs[w] = eng.Join(rs, opts)
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

func TestDistributedJoinIdenticalAcrossAllAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	rs := testutil.ClusteredDataset(rng, 12, 14, 7, 400)
	algos := []rankjoin.Algorithm{
		rankjoin.AlgBruteForce, rankjoin.AlgVJ, rankjoin.AlgVJNL,
		rankjoin.AlgCL, rankjoin.AlgCLP, rankjoin.AlgVSMART,
		rankjoin.AlgClusterJoin, rankjoin.AlgFSJoin,
	}
	for _, alg := range algos {
		t.Run(alg.String(), func(t *testing.T) {
			opts := rankjoin.Options{Algorithm: alg, Theta: 0.3, Delta: 8, Partitions: 5}
			single, err := rankjoin.NewEngine(rankjoin.EngineConfig{Workers: 2}).Join(rs, opts)
			if err != nil {
				t.Fatalf("single-node join: %v", err)
			}
			for w, res := range spmdJoin(t, 3, rs, opts) {
				if !reflect.DeepEqual(res.Pairs, single.Pairs) {
					t.Fatalf("worker %d: %d pairs != single-node %d pairs",
						w, len(res.Pairs), len(single.Pairs))
				}
			}
		})
	}
}

// TestDistributedAutoDeltaAgrees: with δ left to the join, every SPMD
// worker plans it from the all-gathered ordering counts — each must
// arrive at the δ SuggestDelta computes from the whole dataset, or the
// workers would build different dataflow graphs.
func TestDistributedAutoDeltaAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	rs := testutil.ClusteredDataset(rng, 40, 6, 7, 60)
	opts := rankjoin.Options{Algorithm: rankjoin.AlgCLP, Theta: 0.3, Partitions: 5, Stats: true}
	want, err := rankjoin.SuggestDelta(rs, opts.Theta)
	if err != nil {
		t.Fatal(err)
	}
	single, err := rankjoin.NewEngine(rankjoin.EngineConfig{Workers: 2}).Join(rs, opts)
	if err != nil {
		t.Fatal(err)
	}
	for w, res := range spmdJoin(t, 3, rs, opts) {
		if res.CL.Delta != want || res.CL.PredictedListLen != single.CL.PredictedListLen {
			t.Errorf("worker %d planned %s; SuggestDelta says δ=%d, single node %s",
				w, res.CL.DeltaReport(), want, single.CL.DeltaReport())
		}
		if !reflect.DeepEqual(res.Pairs, single.Pairs) {
			t.Errorf("worker %d: %d pairs != single-node %d pairs", w, len(res.Pairs), len(single.Pairs))
		}
	}
}
