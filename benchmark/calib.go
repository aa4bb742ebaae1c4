package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The reference box runs everything that touches much memory 15–50 %
// slower for spells of seconds to minutes (another tenant on the same
// core; the guest's steal counter stays at 0), and ten raw runs of one
// commit then spread wider than any bound a regression gate can use.
// Within a run every CPU-bound metric moves by about the same factor,
// and so does a fixed piece of the benchmark's own work. The CPU-bound
// end-to-end metrics are therefore calibrated: a calibration pass runs
// after every set-up, join repetition and read window, and each of
// those measurements is divided by the slowdown around it, the median
// of the nearPasses passes nearest to it in time over calibRef.
// README.md has the spreads with and without, and what this hides.

// calibRef is what one calibration pass takes on the reference box at
// rest. It only scales the calibrated metrics into seconds of that box;
// their spread and any comparison between two commits do not depend on
// it.
const calibRef = 17 * time.Millisecond

// calibData is the fixed input of the calibration pass, the same
// whatever the seed.
var calibData = genZipf(newRNG(0xCA11B8A7E), orkuLike, 400, rankK, 0)

// calibSink keeps the passes' results alive.
var calibSink atomic.Int64

// calibration collects a run's calibration passes: how long each took
// and when, in seconds since the first.
type calibration struct {
	t0         time.Time
	at, passes []float64
}

// nearPasses is how many passes make one slowdown: two follow a spell of
// a second but carry each pass's own scatter (a tenth of it) into the
// measurement, a whole run's do not follow spells at all; eight were
// steadiest on ten runs of three workloads.
const nearPasses = 8

// now is the run's clock: seconds since the calibration's first use.
func (c *calibration) now() float64 {
	if c.t0.IsZero() {
		c.t0 = time.Now()
	}
	return time.Since(c.t0).Seconds()
}

// pass runs the benchmark's own small join of calibData on each of P
// goroutines — a hash index over each ranking's first items, a
// candidate set per ranking, the benchmark's own Footrule on every
// candidate — and records how long that took. It calls nothing of the
// program, so no change to the program moves it, and it works the way
// the program's CPU-bound paths do (maps, appends, short scans), which
// is what makes it slow down when they do: a pure arithmetic loop and a
// pointer chase through 16 MB did not follow them. Passes are taken
// only right after CPU-bound work: after a phase that mostly waits (a
// write window) the first pass runs up to twice as long.
func (c *calibration) pass() {
	const prefix = 5
	began := c.now()
	var wg sync.WaitGroup
	for g := 0; g < parallelism(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			postings := map[int32][]int32{}
			for i, r := range calibData {
				for _, it := range r.Items[:prefix] {
					postings[int32(it)] = append(postings[int32(it)], int32(i))
				}
			}
			pairs := 0
			for i, r := range calibData {
				candidates := map[int32]struct{}{}
				for _, it := range r.Items[:prefix] {
					for _, j := range postings[int32(it)] {
						if int(j) > i {
							candidates[j] = struct{}{}
						}
					}
				}
				for j := range candidates {
					if footrule(r.Items, calibData[j].Items) <= rankK*(rankK+1)/3 {
						pairs++
					}
				}
			}
			calibSink.Add(int64(pairs))
		}()
	}
	wg.Wait()
	end := c.now()
	c.at = append(c.at, (began+end)/2)
	c.passes = append(c.passes, end-began)
}

// slowdown is how much slower than at rest the box ran around time t:
// the median of the nearPasses passes nearest to t, over calibRef.
func (c *calibration) slowdown(t float64) float64 {
	order := make([]int, len(c.at))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return math.Abs(c.at[order[i]]-t) < math.Abs(c.at[order[j]]-t) })
	near := make([]float64, 0, nearPasses)
	for _, i := range order[:min(nearPasses, len(order))] {
		near = append(near, c.passes[i])
	}
	return median(near) / calibRef.Seconds()
}

// calibrated is the median of the measurements vs, taken at the times
// at, each divided (a rate: multiplied) by the slowdown around it.
func (c *calibration) calibrated(vs, at []float64, rate bool) float64 {
	out := make([]float64, 0, len(vs))
	for i := 0; i < min(len(vs), len(at)); i++ {
		if s := c.slowdown(at[i]); rate {
			out = append(out, vs[i]*s)
		} else {
			out = append(out, vs[i]/s)
		}
	}
	return median(out)
}
