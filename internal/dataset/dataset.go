// Package dataset provides the workloads of the paper's experimental
// study (§7): synthetic stand-ins for the DBLP and ORKU benchmark
// datasets with matching statistical shape (Zipf-skewed item
// frequencies, a controlled density of near-duplicates), the
// record-to-top-k preprocessing, and the ×n dataset scaling used to
// grow inputs while keeping the item domain fixed.
//
// The real DBLP/ORKU files are set-similarity benchmarks derived from
// bibliography titles and social-network data; what the join algorithms
// actually respond to is (a) the skew of the item-frequency
// distribution, which drives posting-list sizes and prefix selectivity,
// and (b) the rate of near-duplicate rankings, which drives cluster
// formation in the CL pipeline. Both are explicit knobs here.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"rankjoin/internal/rankings"
)

// GenConfig parameterizes the synthetic generator.
type GenConfig struct {
	// N is the number of rankings to generate.
	N int
	// K is the ranking length.
	K int
	// Domain is the number of distinct items. Must be at least K.
	Domain int
	// Skew is the Zipf exponent of the item popularity distribution;
	// 0 means uniform.
	Skew float64
	// DupRate is the fraction of rankings generated as gentle
	// perturbations of an earlier ranking — the near-duplicate density
	// that feeds the clustering phase. 0 disables.
	DupRate float64
	// PerturbSteps is how many perturbation steps a near-duplicate
	// receives (default 2).
	PerturbSteps int
	// Seed makes generation reproducible.
	Seed int64
}

func (c GenConfig) validate() error {
	if c.N < 0 {
		return fmt.Errorf("dataset: negative N %d", c.N)
	}
	if c.K <= 0 {
		return fmt.Errorf("dataset: K must be positive, got %d", c.K)
	}
	if c.Domain < c.K {
		return fmt.Errorf("dataset: domain %d smaller than K %d", c.Domain, c.K)
	}
	if c.DupRate < 0 || c.DupRate > 1 {
		return fmt.Errorf("dataset: dup rate %v out of [0,1]", c.DupRate)
	}
	return nil
}

// Generate draws a synthetic top-k ranking dataset per cfg. Ranking ids
// are 0..N-1 and every ranking is position-indexed.
func Generate(cfg GenConfig) ([]*rankings.Ranking, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	sampler := newZipfSampler(rng, cfg.Skew, cfg.Domain)
	steps := cfg.PerturbSteps
	if steps <= 0 {
		steps = 2
	}
	out := make([]*rankings.Ranking, 0, cfg.N)
	for i := 0; i < cfg.N; i++ {
		var r *rankings.Ranking
		if len(out) > 0 && rng.Float64() < cfg.DupRate {
			base := out[rng.Intn(len(out))]
			// A spread of step counts puts variant distances across
			// the whole threshold range, like the real benchmarks.
			r = Perturb(rng, base, int64(i), 1+rng.Intn(steps), cfg.Domain)
		} else {
			r = drawRanking(rng, sampler, int64(i), cfg.K, cfg.Domain)
		}
		r.Index()
		out = append(out, r)
	}
	return out, nil
}

// drawRanking samples k distinct items from the popularity distribution
// by rejection.
func drawRanking(rng *rand.Rand, sample func() rankings.Item, id int64, k, domain int) *rankings.Ranking {
	items := make([]rankings.Item, 0, k)
	seen := make(map[rankings.Item]struct{}, k)
	misses := 0
	for len(items) < k {
		it := sample()
		if _, dup := seen[it]; dup {
			// With heavy skew rejection can stall on the head items;
			// fall back to a uniform draw after too many misses.
			misses++
			if misses > 20*k {
				it = rankings.Item(rng.Intn(domain))
				if _, dup := seen[it]; dup {
					continue
				}
			} else {
				continue
			}
		}
		seen[it] = struct{}{}
		items = append(items, it)
	}
	return rankings.MustNew(id, items)
}

// Perturb derives a variant of base at a controlled distance: each step
// applies one move — an adjacent swap (+2 Footrule), a random-position
// swap (+2·gap), or an item replacement (+≈2·(k−pos)) — the kinds of
// drift the paper's datasets exhibit between re-crawled or re-ranked
// records. More steps take the variant further from base, so a dataset
// generated with a spread of step counts exhibits pair distances across
// the whole threshold range, like the real benchmarks. The result has
// the given id and the same length.
func Perturb(rng *rand.Rand, base *rankings.Ranking, id int64, steps, domain int) *rankings.Ranking {
	k := base.K()
	items := make([]rankings.Item, k)
	copy(items, base.Items)
	for t := 0; t < steps; t++ {
		switch rng.Intn(4) {
		case 0: // swap adjacent ranks: finest move
			if k >= 2 {
				i := rng.Intn(k - 1)
				items[i], items[i+1] = items[i+1], items[i]
			}
		case 1: // swap two random ranks: medium move
			if k >= 2 {
				i, j := rng.Intn(k), rng.Intn(k)
				items[i], items[j] = items[j], items[i]
			}
		case 2, 3: // replace the item at a random (bottom-leaning) rank
			pos := k - 1 - rng.Intn((k+1)/2)
			for tries := 0; tries < 32; tries++ {
				it := rankings.Item(rng.Intn(domain))
				fresh := true
				for _, have := range items {
					if have == it {
						fresh = false
						break
					}
				}
				if fresh {
					items[pos] = it
					break
				}
			}
		}
	}
	r := rankings.MustNew(id, items)
	r.Index()
	return r
}

// newZipfSampler returns a sampler over item ids 0..domain-1 whose
// popularity follows a Zipf law with the given exponent (uniform when
// skew == 0). Item ids are assigned popularity ranks via a fixed
// pseudo-random permutation so that popular items are scattered across
// the id space, as in real datasets.
func newZipfSampler(rng *rand.Rand, skew float64, domain int) func() rankings.Item {
	if skew == 0 {
		return func() rankings.Item { return rankings.Item(rng.Intn(domain)) }
	}
	// Inverse-CDF sampling over the rank distribution.
	cdf := make([]float64, domain)
	sum := 0.0
	for i := 0; i < domain; i++ {
		sum += math.Pow(float64(i+1), -skew)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	perm := rand.New(rand.NewSource(rng.Int63())).Perm(domain)
	return func() rankings.Item {
		u := rng.Float64()
		idx := sort.SearchFloat64s(cdf, u)
		if idx >= domain {
			idx = domain - 1
		}
		return rankings.Item(perm[idx])
	}
}

// TopK applies the paper's preprocessing (§7) to raw token records:
// records shorter than k are dropped, the first k tokens become the
// ranking (duplicate tokens within a record are skipped, keeping first
// occurrence), and exact-duplicate records are removed before cutting,
// as in the benchmark preprocessing of Fier et al. Rankings are
// re-numbered 0..n-1.
func TopK(records [][]rankings.Item, k int) []*rankings.Ranking {
	seen := map[string]struct{}{}
	var out []*rankings.Ranking
	var id int64
	for _, rec := range records {
		key := fingerprint(rec)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		items := make([]rankings.Item, 0, k)
		have := map[rankings.Item]struct{}{}
		for _, tok := range rec {
			if _, dup := have[tok]; dup {
				continue
			}
			have[tok] = struct{}{}
			items = append(items, tok)
			if len(items) == k {
				break
			}
		}
		if len(items) < k {
			continue
		}
		r := rankings.MustNew(id, items)
		r.Index()
		out = append(out, r)
		id++
	}
	return out
}

func fingerprint(rec []rankings.Item) string {
	buf := make([]byte, 0, 4*len(rec))
	for _, t := range rec {
		buf = append(buf, byte(t), byte(t>>8), byte(t>>16), byte(t>>24))
	}
	return string(buf)
}

// Scale grows a dataset ×times with the method of the paper's §7 (after
// Vernica et al. and Fier et al.): the item domain stays fixed and the
// join-result size grows approximately linearly. Copy j of a ranking
// shifts every item id by j (mod domain), so each copy joins within
// itself like the original but contributes almost no cross-copy pairs.
// Ids of copy j are offset by j·idStride, with idStride = the smallest
// power of ten above the dataset size.
func Scale(rs []*rankings.Ranking, times, domain int) []*rankings.Ranking {
	if times <= 1 {
		return rs
	}
	stride := int64(10)
	for stride < int64(len(rs)) {
		stride *= 10
	}
	out := make([]*rankings.Ranking, 0, len(rs)*times)
	out = append(out, rs...)
	for j := 1; j < times; j++ {
		for _, r := range rs {
			items := make([]rankings.Item, len(r.Items))
			for i, it := range r.Items {
				items[i] = rankings.Item((int(it) + j) % domain)
			}
			c := rankings.MustNew(r.ID+int64(j)*stride, items)
			c.Index()
			out = append(out, c)
		}
	}
	return out
}
