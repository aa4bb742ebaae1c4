package obs

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// histBuckets is the number of power-of-two buckets: bucket i counts
// observations v with bits.Len64(v) == i, i.e. bucket 0 holds v == 0,
// bucket i (i ≥ 1) holds v ∈ [2^(i-1), 2^i). 64 buckets cover the
// whole non-negative int64 range.
const histBuckets = 65

// Histogram is a lock-free power-of-two histogram: one atomic counter
// per bucket plus count/sum/max. Observe costs two atomic adds and a
// CAS loop only when a new maximum is seen — cheap enough to record
// every shuffle partition size, posting-list length and cluster size.
// The zero value is ready to use; a nil *Histogram is a valid no-op
// sink.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

// Observe records one non-negative value (negative values are clamped
// to zero).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Snapshot returns a plain-value copy. Concurrent Observe calls may be
// partially included; each bucket is individually consistent.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			if s.Buckets == nil {
				s.Buckets = make(map[int]int64)
			}
			s.Buckets[i] = n
		}
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram. Buckets
// maps bucket index i (observations in [2^(i-1), 2^i), index 0 = zero
// values) to its count; empty buckets are omitted.
type HistogramSnapshot struct {
	Count   int64
	Sum     int64
	Max     int64
	Buckets map[int]int64
}

// BucketUpper returns the exclusive upper value bound of bucket i.
func BucketUpper(i int) int64 {
	if i <= 0 {
		return 1
	}
	if i >= 63 {
		return int64(1) << 62 // saturate, avoids overflow
	}
	return int64(1) << i
}

// Quantile returns an upper bound for the q-quantile (q ∈ [0, 1]): the
// exclusive upper edge of the bucket holding the q·Count-th
// observation, capped at Max. Returns 0 on an empty histogram.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(q * float64(s.Count))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i := 0; i < histBuckets; i++ {
		n, ok := s.Buckets[i]
		if !ok {
			continue
		}
		seen += n
		if seen >= target {
			upper := BucketUpper(i) - 1
			if upper > s.Max {
				upper = s.Max
			}
			return upper
		}
	}
	return s.Max
}

// Sub returns the observations recorded between old and s: two
// cumulative snapshots of the same histogram turn into the delta over
// the interval separating them. Count and Sum subtract exactly; the
// delta's Max is only bracketed (the exact maximum of the interval is
// not recoverable from cumulative buckets), reported as the upper edge
// of the highest bucket that grew, capped at the cumulative Max.
// Counter resets (old ahead of s) clamp to an empty delta.
func (s HistogramSnapshot) Sub(old HistogramSnapshot) HistogramSnapshot {
	d := HistogramSnapshot{Count: s.Count - old.Count, Sum: s.Sum - old.Sum}
	if d.Count <= 0 {
		return HistogramSnapshot{}
	}
	if d.Sum < 0 {
		d.Sum = 0
	}
	top := -1
	for i, n := range s.Buckets {
		m := n - old.Buckets[i]
		if m <= 0 {
			continue
		}
		if d.Buckets == nil {
			d.Buckets = make(map[int]int64, len(s.Buckets))
		}
		d.Buckets[i] = m
		if i > top {
			top = i
		}
	}
	if top >= 0 {
		d.Max = BucketUpper(top) - 1
		if d.Max > s.Max {
			d.Max = s.Max
		}
	}
	return d
}

// Mean returns the exact average of the observations (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// String renders the summary form used in logs and metric dumps:
// count, mean, p50/p95 upper bounds and max.
func (s HistogramSnapshot) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50<=%d p95<=%d max=%d",
		s.Count, s.Mean(), s.Quantile(0.50), s.Quantile(0.95), s.Max)
}
