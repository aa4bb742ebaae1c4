package shard

import (
	"math/bits"
	"math/rand"
	"slices"

	"rankjoin/internal/rankings"
)

// Error-bounded sampled pivot selection. Instead of picking pivots
// uniformly at random (which wastes table width on pivots that prune
// the same pairs, or on pivots near the dataset's center that prune
// nothing), each re-pivot estimates pruning power on a bounded sample
// and grows the pivot set greedily until the marginal gain drops under
// an error bound — the sampling strategy of the error-bounded
// distributed metric-join literature, applied to the serving index:
//
//  1. Sample up to pivotSampleSize members and compute their pairwise
//     Footrule matrix (the only distance computations the selection
//     performs; everything below is arithmetic on the matrix).
//  2. Take a reference radius from a low percentile of the sampled
//     distance distribution — the distance scale at which serving
//     queries actually discriminate.
//  3. A candidate pivot c "covers" a sampled pair (a, b) when
//     |d(c,a) − d(c,b)| > radius: the triangle bound through c would
//     prune b for a query at a (and vice versa) at that scale.
//  4. Greedily add the candidate covering the most uncovered pairs,
//     stopping at the width cap or when the marginal gain falls below
//     pivotGainEps of the pair population — extra pivots past that
//     point cost a table column and a per-entry distance without
//     measurably improving pruning.
//
// No query reads the chosen pivots any more; Shard.pivots says why the
// selection still runs.
const (
	pivotSampleSize = 48
	pivotGainEps    = 0.02
	// pivotRadiusPct picks the reference radius: the 5th percentile of
	// sampled pairwise distances, approximating a tight serving
	// threshold.
	pivotRadiusPct = 0.05
)

// selectPivots chooses at most width pivots from members. Deterministic
// given rng's state and the member order; safe to run without locks on
// an immutable member snapshot.
func selectPivots(members []*rankings.Ranking, width int, rng *rand.Rand) []*rankings.Ranking {
	n := len(members)
	if width > n {
		width = n
	}
	if width <= 0 || n == 0 {
		return nil
	}
	s := n
	if s > pivotSampleSize {
		s = pivotSampleSize
	}
	perm := rng.Perm(n)
	sample := perm[:s]
	if s == 1 {
		return []*rankings.Ranking{members[sample[0]]}
	}

	// Pairwise distances over the sample.
	D := make([]int32, s*s)
	dists := make([]int32, 0, s*(s-1)/2)
	for i := 0; i < s; i++ {
		for j := i + 1; j < s; j++ {
			d := int32(rankings.Footrule(members[sample[i]], members[sample[j]]))
			D[i*s+j], D[j*s+i] = d, d
			dists = append(dists, d)
		}
	}
	slices.Sort(dists)
	radius := dists[int(pivotRadiusPct*float64(len(dists)-1))]

	// cover[c*words:(c+1)*words] is the set of sample pairs (a, b), a < b,
	// that candidate c covers, one bit per pair in row-major order, so a
	// greedy round costs a popcount per word instead of a pass over the
	// distance matrix per candidate.
	totalPairs := s * (s - 1) / 2
	words := (totalPairs + 63) / 64
	cover := make([]uint64, s*words)
	for c := 0; c < s; c++ {
		row := cover[c*words : (c+1)*words]
		pair := 0
		for a := 0; a < s; a++ {
			da := D[c*s+a]
			for b := a + 1; b < s; b++ {
				if diff := da - D[c*s+b]; diff > radius || -diff > radius {
					row[pair/64] |= 1 << (pair % 64)
				}
				pair++
			}
		}
	}

	// Greedy max-coverage over unordered sample pairs.
	covered := make([]uint64, words)
	chosen := make([]*rankings.Ranking, 0, width)
	inChosen := make([]bool, s)
	minGain := int(pivotGainEps * float64(totalPairs))
	for len(chosen) < width {
		best, bestGain := -1, 0
		for c := 0; c < s; c++ {
			if inChosen[c] {
				continue
			}
			gain := 0
			for w, bs := range cover[c*words : (c+1)*words] {
				gain += bits.OnesCount64(bs &^ covered[w])
			}
			if gain > bestGain {
				best, bestGain = c, gain
			}
		}
		if best < 0 {
			break
		}
		// The first pivot is always worth its column; after that, stop
		// when the marginal coverage gain dips under the error bound.
		if len(chosen) > 0 && bestGain <= minGain {
			break
		}
		inChosen[best] = true
		chosen = append(chosen, members[sample[best]])
		for w, bs := range cover[best*words : (best+1)*words] {
			covered[w] |= bs
		}
	}
	if len(chosen) == 0 {
		// Degenerate sample (all members equidistant): keep one pivot
		// anyway so the shard never re-enters the pivotless state, which
		// would re-trigger selection on every mutation.
		chosen = append(chosen, members[sample[0]])
	}
	return chosen
}
