package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"rankjoin"
	"rankjoin/internal/rankings"
)

// options is one invocation's settings.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	scale   float64 // input sizes × scale; 1 except in the smoke test
	outDir  string  // traces, reports and scratch directories
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's run. Correct, Attempted, Failed and Metrics
// are the last line of standard output; the rest is printed above it.
type result struct {
	Workload  string                 `json:"workload"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Digest    string                 `json:"input_digest"`
	Notes     []string               `json:"notes,omitempty"` // what failed, and sample counts
}

func (r *result) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			r.Metrics[name] = metricValue{Value: v, Unit: d.unit}
			return
		}
	}
	panic("benchmark: metric " + name + " is not declared in spec.go")
}

func (r *result) count(attempted, failed int, notes []string) {
	r.Attempted += attempted
	r.Failed += failed
	r.Notes = append(r.Notes, notes...)
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// parallelism is P: the benchmark's GOMAXPROCS, the engine's workers
// and the number of closed-loop clients.
func parallelism() int { return min(max(runtime.NumCPU(), 2), 4) }

// The set-up is repeated until minSetups are done and setupBudget is
// spent, maxSetups at most: a set-up of a tenth of a second is an fsync,
// a fleet boot and a few collections, and the median of three of them
// moved by a quarter between runs.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 1200 * time.Millisecond
)

// scenario is a workload set up and ready to be measured.
type scenario struct {
	w   *workload
	in  *inputs
	st  *stack
	eng *rankjoin.Engine
	dir string // scratch: WAL directories and recovery copies
}

// setUp generates the inputs and boots the program: input generation,
// index load, WAL open and snapshot, fleet boot, pivots built.
func setUp(w *workload, opt options, dir string) (*scenario, error) {
	in := generate(w, opt.seed, opt.scale)
	st, err := bootStack(w, in, filepath.Join(dir, "wal"), parallelism())
	if err != nil {
		return nil, err
	}
	eng := rankjoin.NewEngine(rankjoin.EngineConfig{Workers: parallelism()})
	return &scenario{w: w, in: in, st: st, eng: eng, dir: dir}, nil
}

// runWorkload is one invocation: set up (several times; setup_s is the
// median, all but the last torn down again), measure for about
// opt.seconds, check, tear down.
func runWorkload(w *workload, opt options) (*result, error) {
	began := time.Now()
	runtime.GOMAXPROCS(parallelism())
	scratch, err := os.MkdirTemp(opt.outDir, "run-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	var sc *scenario
	var setupTimes, setupAt []float64
	cal := new(calibration)
	for i := 0; i < minSetups || (i < maxSetups && sum(setupTimes) < setupBudget.Seconds()); i++ {
		if sc != nil {
			sc.st.crash()
			sc.eng.Close()
		}
		runtime.GC() // the torn-down stack is not this set-up's to collect
		setupAt = append(setupAt, cal.now())
		t0 := time.Now()
		if sc, err = setUp(w, opt, filepath.Join(scratch, fmt.Sprintf("setup-%d", i))); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		cal.pass()
	}
	res := &result{Workload: w.name, Metrics: map[string]metricValue{}, Digest: sc.in.digest}
	if want, frozen := frozenDigests[w.name]; frozen && opt.seed == 1 && opt.scale == 1 && want != sc.in.digest {
		res.count(1, 1, []string{"input digest " + sc.in.digest + " differs from the frozen " + want})
	}
	if opt.trace {
		err = tracedRun(sc, opt, res)
	} else {
		res.set(endToEnd, "setup_s", cal.calibrated(setupTimes, setupAt, false))
		res.note("setup_s: %d set-ups, as the clock read them, median %.4g: %s", len(setupTimes), median(setupTimes), list(setupTimes))
		err = untracedRun(sc, opt, res, cal)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	res.note("wall %.1f s, of which set-up %.1f s", time.Since(began).Seconds(), sum(setupTimes))
	return res, nil
}

// untracedRun measures the end-to-end metrics. The run is cut into
// rounds, each a few join repetitions, a window of reads and a window
// of writes (or one window of both), and every metric is the median
// over the rounds. Every window and every join repetition starts from
// a collected heap, so that what the one before left behind is not
// collected on its clock, and is followed by a calibration pass: what
// the CPU bounds (set-up, joins, reads) is divided by the slowdown
// around it (calib.go); what a timer and the disk bound (writes) is not.
// Then the crash, the recovery and the model check.
func untracedRun(sc *scenario, opt options, res *result, cal *calibration) error {
	w, in, st := sc.w, sc.in, sc.st
	share := func(s float64) time.Duration {
		return time.Duration(s * opt.seconds * float64(time.Second))
	}
	plan, err := planJoins(sc, opt.seed, share(w.joinShare), cal)
	if err != nil {
		return fmt.Errorf("join warm-up: %w", err)
	}
	cs := newClients(parallelism())
	live := newLiveSet(in.data)
	all := func(opKind) bool { return true }
	onlyReads := func(k opKind) bool { return !k.write() }
	var reads, writes loadStats
	var readAt []float64 // when each read window ran, on cal's clock

	// Reads warm up on a tenth of their time; the rest is the windows.
	readWindow := share(w.readShare) * 9 / 10 / rounds
	writeWindow := share(w.writeShare) / rounds
	loadPhase(cs, st.url, in, share(w.readShare)/10, 0, nil, 0, nil)
	failed, notes := checkReads(cs, in, live.rs)
	res.count(0, failed, notes)

	for r := 0; r < rounds; r++ {
		if err := plan.round(); err != nil {
			return fmt.Errorf("join: %w", err)
		}
		runtime.GC()
		if w.mixed {
			// Readers beside writers; the snapshot falls two thirds into the run.
			var snapErr error
			var snapshot func()
			if r == rounds*2/3 {
				snapshot = func() { snapErr = st.mgr.SnapshotAll(st.idx) }
			}
			at := cal.now()
			loadPhase(cs, st.url, in, readWindow+writeWindow, len(cs)/2, nil, 1.0/3, snapshot)
			readAt = append(readAt, (at+cal.now())/2)
			cal.pass() // the readers kept the CPU busy
			if snapErr != nil {
				return fmt.Errorf("mid-run snapshot: %w", snapErr)
			}
			reads.addWindow(cs, readWindow+writeWindow, onlyReads)
			writes.addWindow(cs, readWindow+writeWindow, opKind.write)
			failed, notes = checkReads(cs, in, nil)
		} else {
			at := cal.now()
			loadPhase(cs, st.url, in, readWindow, 0, nil, 0, nil)
			readAt = append(readAt, (at+cal.now())/2)
			cal.pass()
			reads.addWindow(cs, readWindow, all)
			failed, notes = checkReads(cs, in, live.rs)
			res.count(0, failed, notes)
			runtime.GC()
			loadPhase(cs, st.url, in, writeWindow, len(cs), nil, 0, nil)
			writes.addWindow(cs, writeWindow, all)
			failed, notes = 0, nil
		}
		res.count(0, failed, notes)
		failed, notes = applyAcks(live, in, cs)
		res.count(0, failed, notes)
	}

	res.note("slowdown: median %.3f over %d calibration passes of %.4g s at rest; as the clock read them: %s",
		median(cal.passes)/calibRef.Seconds(), len(cal.passes), calibRef.Seconds(), list(cal.passes))
	for _, a := range joinAlgs {
		secs := plan.seconds[a.alg]
		res.set(endToEnd, a.metric, cal.calibrated(secs, plan.at[a.alg], false))
		res.note("%s: %d repetitions over %d rounds, %d pairs; as the clock read them, median %.4g: %s",
			a.metric, len(secs), rounds, len(plan.last[a.alg].Pairs), median(secs), list(secs))
	}
	res.count(checkJoins(in, w.theta, plan.last))
	res.set(endToEnd, "read_qps", cal.calibrated(reads.mixQPS, readAt, true))
	res.set(endToEnd, "knn_p50_ms", cal.calibrated(reads.p50[opKNN], readAt, false))
	res.set(endToEnd, "write_qps", median(writes.qps))
	res.set(endToEnd, "write_ack_p50_ms", median(writes.p50All))
	res.note("reads: %d samples in %d windows; %d closed-loop clients", reads.samples, rounds, len(cs))
	res.note("read windows as the clock read them: qps at one kNN per search %s; of the window %s; search p50 %s; knn p50 %s; p99 %s, at least %d samples beyond it per window",
		list(reads.mixQPS), list(reads.qps), list(reads.p50[opSearch]), list(reads.p50[opKNN]), list(reads.p99), reads.beyond99)
	res.note("writes: %d samples in %d windows: qps %s; ack p50 %s; ack p99 %.3f ms with at least %d beyond it per window (too few to repeat: a per-layer metric)",
		writes.samples, rounds, list(writes.qps), list(writes.p50All), median(writes.p99), writes.beyond99)
	for _, cl := range cs {
		res.count(cl.reads+cl.writes, cl.failed, cl.notes)
	}

	st.crash()
	sc.eng.Close()
	want := make(map[int64]*rankings.Ranking, len(live.rs))
	for _, r := range live.rs {
		if st.owns(r.ID) {
			want[r.ID] = r
		}
	}
	_, _, failed, notes, err = recoverCopies(st, sc.dir, want, 1)
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	res.count(1, failed, notes)

	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	res.set(endToEnd, "peak_rss_mb", rss)
	return nil
}

// peakRSSMB reads VmHWM, the process's peak resident set: one workload
// per process, so it is that workload's.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
