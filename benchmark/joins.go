package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"time"

	"rankjoin"
	"rankjoin/internal/rankings"
)

// joinAlgs is the order the joins run in.
var joinAlgs = []struct {
	alg    rankjoin.Algorithm
	metric string
}{
	{rankjoin.AlgVJNL, "join_vjnl_s"},
	{rankjoin.AlgVJ, "join_vj_s"},
	{rankjoin.AlgCL, "join_cl_s"},
	{rankjoin.AlgCLP, "join_clp_s"},
}

const (
	rounds       = 5    // the run is cut into this many rounds of joins, reads and writes
	maxRoundReps = 4    // repetitions of one algorithm per round, at most
	bruteForceN  = 1500 // joins are checked against brute force on this prefix
)

// joinFunc runs one complete self-join: in-memory input to sorted,
// de-duplicated Result.Pairs, default options (CL-P with auto δ).
type joinFunc func(alg rankjoin.Algorithm, rs []*rankings.Ranking) (*rankjoin.Result, error)

// joinPlan spreads the timed repetitions of the four algorithms over
// the rounds of a run, so that each join_*_s is a median over
// repetitions taken seconds apart, with a calibration pass after each.
//
// Every repetition joins a copy of the input whose items are renamed by
// a fresh permutation. The engine routes tokens to its 8 partitions by
// a hash seeded once per process, and which popular tokens share a
// partition moves a join's time by tens of per cent; on one naming, a
// process would measure one draw of that lottery however often it
// repeated. Renaming changes neither the pairs nor the amount of work.
type joinPlan struct {
	data     []*rankings.Ranking
	domain   int
	names    *rng
	cal      *calibration
	run      map[rankjoin.Algorithm]joinFunc
	perRound time.Duration // one round's time for joins
	left     time.Duration // granted and not yet spent
	cost     time.Duration // of one repetition of every algorithm
	seconds  map[rankjoin.Algorithm][]float64
	at       map[rankjoin.Algorithm][]float64 // when each repetition ran, on cal's clock
	last     map[rankjoin.Algorithm]*rankjoin.Result
}

// planJoins runs every algorithm once as its warm-up; what that leaves
// of budget, the whole run's time for joins, is split evenly over the
// rounds.
func planJoins(sc *scenario, seed int64, budget time.Duration, cal *calibration) (*joinPlan, error) {
	w := sc.w
	local := func(alg rankjoin.Algorithm, rs []*rankings.Ranking) (*rankjoin.Result, error) {
		return sc.eng.Join(rs, rankjoin.Options{Algorithm: alg, Theta: w.theta})
	}
	overWire := func(alg rankjoin.Algorithm, rs []*rankings.Ranking) (*rankjoin.Result, error) {
		return sc.st.fleet.Peers[0].Cluster.DistributedJoin(context.Background(), rs,
			rankjoin.Options{Algorithm: alg, Theta: w.theta})
	}
	p := &joinPlan{
		data:    sc.in.joinData,
		domain:  sc.in.domain,
		names:   newRNG(uint64(seed)<<8 | 6),
		cal:     cal,
		run:     map[rankjoin.Algorithm]joinFunc{},
		seconds: map[rankjoin.Algorithm][]float64{},
		at:      map[rankjoin.Algorithm][]float64{},
		last:    map[rankjoin.Algorithm]*rankjoin.Result{},
	}
	began := time.Now()
	for _, a := range joinAlgs {
		p.run[a.alg] = local
		if a.alg == rankjoin.AlgCLP && w.distributed {
			p.run[a.alg] = overWire
		}
		if _, err := p.run[a.alg](a.alg, p.data); err != nil {
			return nil, fmt.Errorf("%v: %w", a.alg, err)
		}
	}
	p.cost = time.Since(began)
	p.perRound = max(0, budget-p.cost) / rounds
	return p, nil
}

// round runs every algorithm the same number of times: as often as the
// round's time, and what earlier rounds left of theirs, pays for one
// repetition of each — once at least, maxRoundReps times at most. The
// four medians then rest on equally many repetitions. Each repetition
// starts from a collected heap: a join allocates several times what it
// keeps, and where in a repetition the collector's cycles fall would
// otherwise decide which of two times a short join shows.
func (p *joinPlan) round() error {
	p.left += p.perRound
	reps := min(max(int(p.left/max(p.cost, time.Millisecond)), 1), maxRoundReps)
	began := time.Now()
	for _, a := range joinAlgs {
		for i := 0; i < reps; i++ {
			rs := renameItems(p.names, p.data, p.domain)
			runtime.GC()
			at := p.cal.now()
			t0 := time.Now()
			res, err := p.run[a.alg](a.alg, rs)
			d := time.Since(t0)
			if err != nil {
				return fmt.Errorf("%v: %w", a.alg, err)
			}
			p.cal.pass()
			p.seconds[a.alg] = append(p.seconds[a.alg], d.Seconds())
			p.at[a.alg] = append(p.at[a.alg], at+d.Seconds()/2)
			p.last[a.alg] = res
		}
	}
	spent := time.Since(began)
	p.left -= spent
	p.cost = spent / time.Duration(reps) // renaming, collection and calibration included
	return nil
}

// footrule is the benchmark's own top-k Footrule distance: every item
// of either ranking contributes its rank difference, an item missing
// from one side standing at rank k there.
func footrule(a, b []rankings.Item) int {
	k := len(a)
	d := 0
	for i, x := range a {
		j := k
		for p, y := range b {
			if x == y {
				j = p
				break
			}
		}
		if j >= i {
			d += j - i
		} else {
			d += i - j
		}
	}
	for j, y := range b {
		if !contains(a, y) {
			d += k - j
		}
	}
	return d
}

// maxDistFor is ⌊θ·k(k+1)⌋ with the guard that keeps an exact boundary
// θ = d/(k(k+1)) inclusive of distance d.
func maxDistFor(theta float64, k int) int { return int(theta*float64(k*(k+1)) + 1e-9) }

// bruteForcePairs joins rs with itself by comparing every pair.
func bruteForcePairs(rs []*rankings.Ranking, maxDist int) []rankings.Pair {
	var out []rankings.Pair
	for i, a := range rs {
		for _, b := range rs[i+1:] {
			if d := footrule(a.Items, b.Items); d <= maxDist {
				lo, hi := a.ID, b.ID
				if lo > hi {
					lo, hi = hi, lo
				}
				out = append(out, rankings.Pair{A: lo, B: hi, Dist: d})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

func pairsDigest(ps []rankings.Pair) string {
	h := sha256.New()
	var buf [24]byte
	for _, p := range ps {
		binary.LittleEndian.PutUint64(buf[0:], uint64(p.A))
		binary.LittleEndian.PutUint64(buf[8:], uint64(p.B))
		binary.LittleEndian.PutUint64(buf[16:], uint64(p.Dist))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkJoins counts one attempt per algorithm and one failure for each
// whose pair set differs from the others' or, on the first bruteForceN
// rankings, from brute force. Join data ids are 0..n-1 in input order.
func checkJoins(in *inputs, theta float64, results map[rankjoin.Algorithm]*rankjoin.Result) (attempted, failed int, notes []string) {
	prefix := in.joinData[:min(bruteForceN, len(in.joinData))]
	want := pairsDigest(bruteForcePairs(prefix, maxDistFor(theta, rankK)))
	first := ""
	for _, a := range joinAlgs {
		attempted++
		pairs := results[a.alg].Pairs
		var onPrefix []rankings.Pair
		for _, p := range pairs {
			if p.B < int64(len(prefix)) { // A < B
				onPrefix = append(onPrefix, p)
			}
		}
		d := pairsDigest(pairs)
		if first == "" {
			first = d
		}
		switch {
		case pairsDigest(onPrefix) != want:
			failed++
			notes = append(notes, fmt.Sprintf("%v differs from brute force on the first %d rankings", a.alg, len(prefix)))
		case d != first:
			failed++
			notes = append(notes, fmt.Sprintf("%v pair set differs from %v's", a.alg, joinAlgs[0].alg))
		}
	}
	return attempted, failed, notes
}
