package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"

	"rankjoin/internal/rankings"
)

// The benchmark owns its input generator: nothing here imports
// internal/dataset or internal/testutil, and the random stream is a
// local splitmix64 rather than math/rand, so neither a later PR to the
// repository's generators nor a Go release can change the load. The
// shapes mirror the ones the repository's own experiments use: Zipf
// item popularity with a share of near-duplicates (the DBLP/ORKU
// stand-ins of the paper's §7) and seed rankings with a few gentle
// variants each (the serving benches' clustered data).

type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019} }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n); the modulo bias is below 2^-40 for
// every n the benchmark uses.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// zipfSampler draws ranks from a Zipf law with exponent s over
// [0, domain) by inverse CDF; item maps a rank onto an item id through
// a fixed permutation, so popular items are scattered over the id space.
type zipfSampler struct {
	cdf  []float64
	perm []int
}

func newZipfSampler(r *rng, s float64, domain int) *zipfSampler {
	z := &zipfSampler{cdf: make([]float64, domain), perm: r.perm(domain)}
	sum := 0.0
	for i := range z.cdf {
		sum += math.Pow(float64(i+1), -s)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

func (z *zipfSampler) rank(r *rng) int {
	i := sort.SearchFloat64s(z.cdf, r.float())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

func (z *zipfSampler) item(r *rng) rankings.Item { return rankings.Item(z.perm[z.rank(r)]) }

func contains(items []rankings.Item, it rankings.Item) bool {
	for _, have := range items {
		if have == it {
			return true
		}
	}
	return false
}

func mustRanking(id int64, items []rankings.Item) *rankings.Ranking {
	r := rankings.MustNew(id, items)
	r.Index()
	return r
}

// joinShape is one Zipf + near-duplicate dataset family.
type joinShape struct {
	skew         float64 // Zipf exponent of item popularity
	domainFactor float64 // distinct items per ranking
	dupRate      float64 // share of rankings that are variants of an earlier one
}

var (
	// orkuLike: heavy skew, small domain, many related records — long
	// posting lists and real clusters.
	orkuLike = joinShape{skew: 1.05, domainFactor: 0.35, dupRate: 0.35}
	// dblpLike: moderate skew, larger domain, fewer related records —
	// short prefixes and few candidates per ranking.
	dblpLike = joinShape{skew: 0.85, domainFactor: 0.60, dupRate: 0.25}
)

// genZipf draws n rankings of length k: each is either k distinct
// Zipf-popular items or, with probability dupRate, a variant of an
// earlier ranking 1..k perturbation steps away, so pair distances
// spread over the whole θ range.
func genZipf(r *rng, sh joinShape, n, k int, firstID int64) []*rankings.Ranking {
	domain := int(sh.domainFactor * float64(n))
	if domain < 4*k {
		domain = 4 * k
	}
	z := newZipfSampler(r, sh.skew, domain)
	out := make([]*rankings.Ranking, 0, n)
	for i := 0; i < n; i++ {
		id := firstID + int64(i)
		if len(out) > 0 && r.float() < sh.dupRate {
			base := out[r.intn(len(out))]
			out = append(out, perturb(r, base, id, 1+r.intn(k), domain))
			continue
		}
		items := make([]rankings.Item, 0, k)
		for misses := 0; len(items) < k; {
			it := z.item(r)
			if misses > 20*k { // heavy skew can stall on the head items
				it = rankings.Item(r.intn(domain))
			}
			if contains(items, it) {
				misses++
				continue
			}
			items = append(items, it)
		}
		out = append(out, mustRanking(id, items))
	}
	return out
}

// perturb applies steps moves to a copy of base: an adjacent swap, a
// swap of two random ranks, or (twice as likely) the replacement of a
// bottom-half item with a fresh one.
func perturb(r *rng, base *rankings.Ranking, id int64, steps, domain int) *rankings.Ranking {
	k := base.K()
	items := append([]rankings.Item(nil), base.Items...)
	for t := 0; t < steps; t++ {
		switch r.intn(4) {
		case 0:
			i := r.intn(k - 1)
			items[i], items[i+1] = items[i+1], items[i]
		case 1:
			i, j := r.intn(k), r.intn(k)
			items[i], items[j] = items[j], items[i]
		default:
			pos := k - 1 - r.intn((k+1)/2)
			for tries := 0; tries < 32; tries++ {
				if it := rankings.Item(r.intn(domain)); !contains(items, it) {
					items[pos] = it
					break
				}
			}
		}
	}
	return mustRanking(id, items)
}

// genClustered draws seeds uniform rankings over [0, domain) and, after
// each, perSeed variants one or two gentle moves away (adjacent swap,
// bottom-item replacement, bottom-two rotation): every ranking has a
// handful of true neighbours at small distance and the rest of the
// index far away — the serving benches' shape.
func genClustered(r *rng, seeds, perSeed, k, domain int, firstID int64) []*rankings.Ranking {
	out := make([]*rankings.Ranking, 0, seeds*(1+perSeed))
	id := firstID
	for s := 0; s < seeds; s++ {
		base := make([]rankings.Item, 0, k)
		for len(base) < k {
			if it := rankings.Item(r.intn(domain)); !contains(base, it) {
				base = append(base, it)
			}
		}
		out = append(out, mustRanking(id, base))
		id++
		for m := 0; m < perSeed; m++ {
			items := append([]rankings.Item(nil), base...)
			for t := 1 + r.intn(2); t > 0; t-- {
				switch r.intn(3) {
				case 0:
					i := r.intn(k - 1)
					items[i], items[i+1] = items[i+1], items[i]
				case 1:
					for {
						if it := rankings.Item(r.intn(domain)); !contains(items, it) {
							items[k-1] = it
							break
						}
					}
				case 2:
					items[k-2], items[k-1] = items[k-1], items[k-2]
				}
			}
			out = append(out, mustRanking(id, items))
			id++
		}
	}
	return out
}

// digester folds generated inputs into one SHA-256 so a report can
// prove which load it ran.
type digester struct {
	h   hash.Hash
	buf [8]byte
}

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digester) rankings(rs []*rankings.Ranking) {
	d.u64(uint64(len(rs)))
	for _, r := range rs {
		d.u64(uint64(r.ID))
		for _, it := range r.Items {
			d.u64(uint64(it))
		}
	}
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// frozenDigests are the input digests of seed 1 at full scale: a run
// whose generator drifted from them fails.
var frozenDigests = map[string]string{
	"join_dense":    "e179354dd7107ce213623048602b890f3e10f1f7cd7093ba79ca3b6575cd2e17",
	"join_sparse":   "86a4b6ad32dca03a692f61ea351897e353b66e4003682d3ff4cf7a8e2e634e75",
	"serve_cold":    "4457782184bbb866da922fc3a5ef96de97548785d95859a9788de9fabcef773d",
	"serve_hot":     "78eaef34f7fe480e873e62259b6ac06f92de16698a4c797f6c041688543e3d3d",
	"durable_churn": "8571a61d5356367b4eb3ad0ade9f0828793c4e65507920114886ae3762e8364a",
	"cluster3":      "eda64f799b0af660e1c2d5520a9e120276a0992d810db48a458bb411bdffab28",
}
