package experiments

import (
	"fmt"
	"sync"
	"time"

	"rankjoin"
	"rankjoin/internal/core"
	"rankjoin/internal/dataset"
	"rankjoin/internal/flow"
	"rankjoin/internal/obs"
	"rankjoin/internal/rankings"
)

// Params sizes the experiment suite. The paper's datasets have 1.2M
// (DBLP) and 2M (ORKU) rankings on an 8-node cluster; these defaults
// keep a full suite in the minutes range on a laptop while preserving
// the qualitative behaviour. All experiments scale linearly off these.
type Params struct {
	// DBLPBase and ORKUBase are the ×1 dataset sizes.
	DBLPBase, ORKUBase int
	// Workers is the engine worker budget for experiments that do not
	// sweep it (0 = GOMAXPROCS).
	Workers int
	// Partitions is the default shuffle partition count, mirroring the
	// paper's 286 at scale.
	Partitions int
	// CellBudget bounds one measurement; a cell exceeding it renders
	// as DNF and skips the rest of its series, mirroring the paper's
	// 10-hour cap. Zero means no budget.
	CellBudget time.Duration
	// Repeats is the number of runs averaged per cell (the paper
	// averages 3). Zero means 3.
	Repeats int
	// Seed feeds dataset generation.
	Seed int64
	// Tracer, when non-nil, is attached to every engine the suite
	// creates, recording phase/shuffle/task spans across all cells
	// (export with WriteChromeTrace). Nil disables tracing.
	Tracer *obs.Tracer
}

// DefaultParams returns the suite sizing used by cmd/experiments and
// the benchmarks.
func DefaultParams() Params {
	return Params{
		DBLPBase:   4000,
		ORKUBase:   6000,
		Workers:    0,
		Partitions: 16,
		CellBudget: 5 * time.Minute,
		Seed:       2020,
	}
}

// Workload is a named dataset instance.
type Workload struct {
	Name     string
	K        int
	Rankings []*rankings.Ranking
}

// datasetCache avoids regenerating workloads shared across experiments.
var (
	dsMu    sync.Mutex
	dsCache = map[string]Workload{}
)

// MakeWorkload instantiates "<profile>x<scale>" at the base size from
// p, generating ×1 and scaling with the paper's fixed-domain method.
func MakeWorkload(p Params, prof dataset.Profile, k, scale int) (Workload, error) {
	base := p.DBLPBase
	if prof.Name == "ORKU" {
		base = p.ORKUBase
	}
	name := fmt.Sprintf("%s(k=%d)", prof.Name, k)
	if scale > 1 {
		name = fmt.Sprintf("%sx%d", name, scale)
	}
	dsMu.Lock()
	defer dsMu.Unlock()
	if w, ok := dsCache[name+fmt.Sprint(base, p.Seed)]; ok {
		return w, nil
	}
	cfg := prof.Config(base, k, p.Seed)
	rs, err := dataset.Generate(cfg)
	if err != nil {
		return Workload{}, err
	}
	if scale > 1 {
		rs = dataset.Scale(rs, scale, cfg.Domain)
	}
	w := Workload{Name: name, K: k, Rankings: rs}
	dsCache[name+fmt.Sprint(base, p.Seed)] = w
	return w, nil
}

// AllAlgos is the paper's lineup (§7 "Algorithms under investigation"),
// in its plotting order.
var AllAlgos = []rankjoin.Algorithm{rankjoin.AlgVJ, rankjoin.AlgVJNL, rankjoin.AlgCL, rankjoin.AlgCLP}

// RunConfig is one measurement cell.
type RunConfig struct {
	Algo       rankjoin.Algorithm
	Theta      float64
	ThetaC     float64 // 0 = paper default 0.03
	Delta      int     // CL-P repartitioning threshold: 0 = defaultDelta, core.AutoDelta = planned by the join
	Workers    int
	Partitions int
	// Tracer records this cell's spans when non-nil (Measure inherits
	// it from Params.Tracer).
	Tracer *obs.Tracer
}

// Measurement is one cell's outcome.
type Measurement struct {
	Wall    time.Duration
	Pairs   int
	Engine  flow.MetricsSnapshot
	CLStats *core.Stats
}

// Run executes one measurement cell on a fresh engine, through the
// public join entry point every other caller uses.
func Run(w Workload, cfg RunConfig) (Measurement, error) {
	e := rankjoin.NewEngine(rankjoin.EngineConfig{
		Workers:           cfg.Workers,
		DefaultPartitions: cfg.Partitions,
	})
	e.SetTracer(cfg.Tracer)

	opts := rankjoin.Options{
		Algorithm:  cfg.Algo,
		Theta:      cfg.Theta,
		ThetaC:     cfg.ThetaC,
		Partitions: cfg.Partitions,
		Stats:      true,
	}
	if cfg.Algo == rankjoin.AlgCLP {
		opts.Delta = cfg.Delta
		if opts.Delta == 0 {
			opts.Delta = defaultDelta(w)
		}
	}
	start := time.Now()
	res, err := e.Join(w.Rankings, opts)
	if err != nil {
		return Measurement{}, err
	}
	return Measurement{
		Wall:    time.Since(start),
		Pairs:   len(res.Pairs),
		Engine:  res.Engine,
		CLStats: res.CL,
	}, nil
}

// defaultDelta scales the paper's per-dataset δ choices to the
// workload: a quarter of the dataset size, floored.
func defaultDelta(w Workload) int {
	d := len(w.Rankings) / 4
	if d < 32 {
		d = 32
	}
	return d
}

// Measure runs one cell p.Repeats times (the paper reports 3-run
// averages) and returns the averaged wall time; the remaining fields
// come from the last run. If the first run already blows the budget,
// no further repeats are attempted.
func Measure(p Params, w Workload, cfg RunConfig) (Measurement, error) {
	if cfg.Workers == 0 {
		cfg.Workers = p.Workers
	}
	if cfg.Partitions == 0 {
		cfg.Partitions = p.Partitions
	}
	if cfg.Tracer == nil {
		cfg.Tracer = p.Tracer
	}
	repeats := p.Repeats
	if repeats <= 0 {
		repeats = 3
	}
	var last Measurement
	var total time.Duration
	runs := 0
	for r := 0; r < repeats; r++ {
		m, err := Run(w, cfg)
		if err != nil {
			return Measurement{}, err
		}
		last = m
		total += m.Wall
		runs++
		if p.CellBudget > 0 && m.Wall > p.CellBudget {
			break
		}
	}
	last.Wall = total / time.Duration(runs)
	return last, nil
}

// series runs a θ sweep for one algorithm, honoring the cell budget:
// once a cell exceeds it, the remaining cells render as DNF (-1), like
// the paper's 10-hour cap.
func series(p Params, w Workload, algo rankjoin.Algorithm, thetas []float64, cfg RunConfig) ([]time.Duration, []int, error) {
	times := make([]time.Duration, len(thetas))
	pairs := make([]int, len(thetas))
	for i, th := range thetas {
		c := cfg
		c.Algo = algo
		c.Theta = th
		m, err := Measure(p, w, c)
		if err != nil {
			return nil, nil, err
		}
		times[i] = m.Wall
		pairs[i] = m.Pairs
		if p.CellBudget > 0 && m.Wall > p.CellBudget {
			for j := i + 1; j < len(thetas); j++ {
				times[j] = -1
			}
			break
		}
	}
	return times, pairs, nil
}

// Thetas is the paper's θ sweep.
var Thetas = []float64{0.1, 0.2, 0.3, 0.4}
