package ppjoin

import (
	"fmt"
	"math"
	"sort"

	"rankjoin/internal/obs"
)

// This file implements the paper's stated outlook (§8): extending the
// machinery to plain sets under Jaccard distance. It is a classic
// prefix-filtering set-similarity self join (Chaudhuri et al. / Xiao et
// al.) with length and positional filters, so that the repository's
// recommender example can join set-valued baskets next to rankings.

// SetRecord is a set of tokens with an identity. Tokens must be stored
// in the global canonical order (ascending frequency); BuildSetRecords
// takes care of that.
type SetRecord struct {
	ID     int64
	Tokens []int32
}

// SetPair is one Jaccard-join result with its similarity.
type SetPair struct {
	A, B int64
	Sim  float64
}

// BuildSetRecords canonicalizes raw token sets: duplicates removed,
// tokens sorted by ascending global frequency (ties by token id).
func BuildSetRecords(raw map[int64][]int32) []SetRecord {
	freq := map[int32]int{}
	for _, toks := range raw {
		seen := map[int32]struct{}{}
		for _, t := range toks {
			if _, dup := seen[t]; dup {
				continue
			}
			seen[t] = struct{}{}
			freq[t]++
		}
	}
	recs := make([]SetRecord, 0, len(raw))
	for id, toks := range raw {
		seen := map[int32]struct{}{}
		uniq := make([]int32, 0, len(toks))
		for _, t := range toks {
			if _, dup := seen[t]; dup {
				continue
			}
			seen[t] = struct{}{}
			uniq = append(uniq, t)
		}
		sort.Slice(uniq, func(i, j int) bool {
			fi, fj := freq[uniq[i]], freq[uniq[j]]
			if fi != fj {
				return fi < fj
			}
			return uniq[i] < uniq[j]
		})
		recs = append(recs, SetRecord{ID: id, Tokens: uniq})
	}
	sort.Slice(recs, func(i, j int) bool { return len(recs[i].Tokens) < len(recs[j].Tokens) })
	return recs
}

// Jaccard computes |a ∩ b| / |a ∪ b| for two canonicalized token sets.
// Tokens must be unique within each set (any order).
func Jaccard(a, b []int32) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inA := make(map[int32]struct{}, len(a))
	for _, t := range a {
		inA[t] = struct{}{}
	}
	inter := 0
	for _, t := range b {
		if _, ok := inA[t]; ok {
			inter++
		}
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// JaccardJoin returns all pairs of records with Jaccard similarity ≥
// threshold, via prefix filtering with length and overlap filters. The
// records must come from BuildSetRecords (canonical token order, sorted
// by length). threshold must be in (0, 1]. Candidates are tallied into
// d, which must not be nil.
func JaccardJoin(recs []SetRecord, threshold float64, d *obs.FilterDelta) ([]SetPair, error) {
	if threshold <= 0 || threshold > 1 {
		return nil, fmt.Errorf("ppjoin: jaccard threshold %v out of (0,1]", threshold)
	}
	index := map[int32][]int{} // token -> record indexes with it in prefix
	var out []SetPair
	for i, r := range recs {
		n := len(r.Tokens)
		if n == 0 {
			continue
		}
		// Prefix length for a self join: n − ⌈t·n⌉ + 1.
		prefix := n - ceilMul(threshold, n) + 1
		overlaps := map[int]int{} // candidate idx -> shared prefix tokens
		for p := 0; p < prefix; p++ {
			tok := r.Tokens[p]
			for _, idx := range index[tok] {
				cand := recs[idx]
				// Length filter: |cand| ≥ t·|r| (records sorted by
				// length, so cand is never longer).
				if float64(len(cand.Tokens)) < threshold*float64(n) {
					continue
				}
				overlaps[idx]++
			}
			index[tok] = append(index[tok], i)
		}
		// Emit candidates in index order: overlaps is a map, and the
		// output order must not depend on iteration order (rankcheck
		// compares runs pairwise after canonical sorting, but callers
		// observe raw order).
		cands := make([]int, 0, len(overlaps))
		for idx := range overlaps {
			cands = append(cands, idx)
		}
		sort.Ints(cands)
		for _, idx := range cands {
			cand := recs[idx]
			if cand.ID == r.ID {
				continue
			}
			d.Generated++
			d.Verified++
			if sim := Jaccard(r.Tokens, cand.Tokens); sim >= threshold {
				d.Emitted++
				a, b := r.ID, cand.ID
				if a > b {
					a, b = b, a
				}
				out = append(out, SetPair{A: a, B: b, Sim: sim})
			}
		}
	}
	return out, nil
}

// JaccardBruteForce is the oracle for JaccardJoin tests.
func JaccardBruteForce(recs []SetRecord, threshold float64) []SetPair {
	var out []SetPair
	for i := 0; i < len(recs); i++ {
		for j := i + 1; j < len(recs); j++ {
			if recs[i].ID == recs[j].ID {
				continue
			}
			if sim := Jaccard(recs[i].Tokens, recs[j].Tokens); sim >= threshold {
				a, b := recs[i].ID, recs[j].ID
				if a > b {
					a, b = b, a
				}
				out = append(out, SetPair{A: a, B: b, Sim: sim})
			}
		}
	}
	return out
}

// ceilMul computes ⌈f·n⌉ with a tolerance for floating-point noise on
// exact multiples.
func ceilMul(f float64, n int) int {
	return int(math.Ceil(f*float64(n) - 1e-9))
}
