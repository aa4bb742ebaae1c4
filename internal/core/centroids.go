// Package core implements the paper's primary contribution: the
// multi-stage clustering similarity join for top-k rankings (CL), and
// its repartitioning variant (CL-P). The pipeline has the four phases
// of Figure 2 — Ordering, Clustering, Joining, Expansion — and uses the
// metric properties of the Footrule distance (Lemmas 5.1 and 5.3,
// triangle-inequality filtering in the expansion) to beat a plain
// VJ-style join at larger thresholds.
package core

import (
	"rankjoin/internal/filters"
	"rankjoin/internal/obs"
	"rankjoin/internal/rankings"
)

// Centroid is one record of the joining phase's input C = Cm ∪ Cs: a
// ranking that represents either a non-singleton cluster (Singleton ==
// false) or itself only (Singleton == true).
type Centroid struct {
	R *rankings.Ranking
	// Singleton marks members of Cs — rankings with no neighbour
	// within the clustering threshold.
	Singleton bool
}

// CPair is one joining-phase result: a pair of centroids within the
// Lemma 5.3 threshold for their type combination, in canonical (A < B)
// order, with the singleton flags carried for the expansion phase.
type CPair struct {
	A, B         int64
	Dist         int
	ASing, BSing bool
}

func newCPair(a, b *Centroid, dist int) CPair {
	if a.R.ID > b.R.ID {
		a, b = b, a
	}
	return CPair{A: a.R.ID, B: b.R.ID, Dist: dist, ASing: a.Singleton, BSing: b.Singleton}
}

// thresholds holds the precomputed unnormalized distance bounds of one
// CL run.
type thresholds struct {
	k  int
	f  int // F: join threshold θ
	fc int // Fc: clustering threshold θc
	fo int // Fo = F + 2·Fc: Lemma 5.1 joining threshold

	// Prefix sizes for the joining phase. prefixM applies to
	// non-singleton centroids (threshold Fo). prefixS applies to
	// singletons; Algorithm 1 in the paper uses get_prefix(θ) here,
	// but a prefix based on θ alone can miss a (Cm, Cs) pair at
	// distance in (θ, θ+θc] when the minimal overlap for θ exceeds the
	// one for θ+θc — the canonically smallest shared item may then hide
	// in the singleton's un-indexed suffix. We therefore compute the
	// singleton prefix from θ+θc, the largest threshold a singleton
	// participates in under Lemma 5.3, which preserves the lemma's
	// savings (the singleton prefix stays shorter than prefixM) while
	// restoring completeness. See DESIGN.md.
	prefixM int
	prefixS int
}

func newThresholds(theta, thetaC float64, k int) thresholds {
	f := rankings.Threshold(theta, k)
	fc := rankings.Threshold(thetaC, k)
	fo := f + 2*fc
	return thresholds{
		k:       k,
		f:       f,
		fc:      fc,
		fo:      fo,
		prefixM: filters.PrefixOverlap(fo, k),
		prefixS: filters.PrefixOverlap(f+fc, k),
	}
}

// pairMax returns the Lemma 5.3 distance bound for a centroid pair:
// θ+2θc for two cluster representatives, θ+θc when one side is a
// singleton, θ when both are.
func (t thresholds) pairMax(aSing, bSing bool) int {
	switch {
	case aSing && bSing:
		return t.f
	case aSing || bSing:
		return t.f + t.fc
	default:
		return t.fo
	}
}

// prefixFor returns the joining-phase prefix size for a centroid type.
func (t thresholds) prefixFor(singleton bool) int {
	if singleton {
		return t.prefixS
	}
	return t.prefixM
}

// centroidSelfJoin is the Algorithm 1 kernel within one posting-list
// (sub-)partition: a nested loop over ordered centroid pairs, each
// resolved against its per-type Lemma 5.3 threshold.
func centroidSelfJoin(members []*Centroid, t thresholds, uniform bool, d *obs.FilterDelta) []CPair {
	var out []CPair
	for i := 0; i < len(members); i++ {
		for j := i + 1; j < len(members); j++ {
			if p, ok := verifyCentroidPair(members[i], members[j], t, uniform, d); ok {
				out = append(out, p)
			}
		}
	}
	return out
}

// centroidCrossJoin is the R-S variant across two sub-partitions.
func centroidCrossJoin(a, b []*Centroid, t thresholds, uniform bool, d *obs.FilterDelta) []CPair {
	var out []CPair
	for _, x := range a {
		for _, y := range b {
			if p, ok := verifyCentroidPair(x, y, t, uniform, d); ok {
				out = append(out, p)
			}
		}
	}
	return out
}

func verifyCentroidPair(x, y *Centroid, t thresholds, uniform bool, d *obs.FilterDelta) (CPair, bool) {
	if x.R.ID == y.R.ID {
		return CPair{}, false
	}
	maxDist := t.pairMax(x.Singleton, y.Singleton)
	if uniform {
		// Lemma 5.3 disabled (ablation): every pair is held to the
		// loose Lemma 5.1 bound θ+2θc.
		maxDist = t.fo
	}
	d.Generated++
	dist, ok := filters.Resolve(x.R, y.R, maxDist, d)
	if !ok {
		return CPair{}, false
	}
	return newCPair(x, y, dist), true
}
