package obs

import (
	"testing"
	"time"
)

func TestSnapshotSub(t *testing.T) {
	var h Histogram
	for _, v := range []int64{1, 2, 3} {
		h.Observe(v)
	}
	old := h.Snapshot()
	for _, v := range []int64{4, 100} {
		h.Observe(v)
	}
	d := h.Snapshot().Sub(old)
	if d.Count != 2 || d.Sum != 104 {
		t.Fatalf("delta = %+v", d)
	}
	// 4 → bucket 3, 100 → bucket 7.
	if d.Buckets[3] != 1 || d.Buckets[7] != 1 || len(d.Buckets) != 2 {
		t.Fatalf("delta buckets = %v", d.Buckets)
	}
	// Max is bracketed: top grown bucket is 7, upper edge 127, capped
	// at the cumulative max 100.
	if d.Max != 100 {
		t.Fatalf("delta max = %d, want 100", d.Max)
	}
	if q := d.Quantile(0.5); q != 7 {
		t.Fatalf("delta p50 = %d, want 7", q)
	}
}

func TestSnapshotSubResetAndEmpty(t *testing.T) {
	a := HistogramSnapshot{Count: 5, Sum: 50, Buckets: map[int]int64{3: 5}}
	b := HistogramSnapshot{Count: 2, Sum: 10, Buckets: map[int]int64{3: 2}}
	// No growth → empty delta.
	if d := a.Sub(a); d.Count != 0 || d.Buckets != nil {
		t.Fatalf("self delta = %+v", d)
	}
	// Counter reset (old ahead) → empty delta, not negative counts.
	if d := b.Sub(a); d.Count != 0 {
		t.Fatalf("reset delta = %+v", d)
	}
}

func TestWindowDelta(t *testing.T) {
	t0 := time.Unix(1000, 0)
	w := NewWindow(time.Minute, t0)
	var h Histogram

	// Before any snapshot, delta falls back to since-start.
	h.Observe(10)
	elapsed, d := w.Delta(t0.Add(5*time.Second), h.Snapshot())
	if elapsed != 5*time.Second || d.Count != 1 {
		t.Fatalf("fallback delta = %v over %v", d, elapsed)
	}

	// Record a snapshot every 15s while observing.
	for i := 1; i <= 8; i++ {
		h.Observe(int64(i))
		w.Record(t0.Add(time.Duration(i)*15*time.Second), h.Snapshot())
	}
	// At t0+120s, the base should be the snapshot at t0+60s (i=4):
	// observations 5..8 are inside the window.
	now := t0.Add(120 * time.Second)
	h.Observe(999) // not yet snapshotted — still part of "current"
	elapsed, d = w.Delta(now, h.Snapshot())
	if d.Count != 5 { // 5,6,7,8,999
		t.Fatalf("window delta count = %d (%+v)", d.Count, d)
	}
	if elapsed != 60*time.Second {
		t.Fatalf("window elapsed = %v, want 60s", elapsed)
	}

	// The ring must stay bounded: old entries beyond the base are gone.
	w.mu.Lock()
	n := len(w.entries)
	w.mu.Unlock()
	if n > 5 {
		t.Fatalf("ring grew to %d entries", n)
	}
}

func TestWindowOutOfOrderAndNil(t *testing.T) {
	t0 := time.Unix(0, 0)
	w := NewWindow(time.Minute, t0)
	var s HistogramSnapshot
	w.Record(t0.Add(10*time.Second), s)
	w.Record(t0.Add(5*time.Second), s) // dropped
	w.mu.Lock()
	n := len(w.entries)
	w.mu.Unlock()
	if n != 1 {
		t.Fatalf("out-of-order record kept, entries = %d", n)
	}

	var nilW *Window
	nilW.Record(t0, s) // no-op
	if elapsed, d := nilW.Delta(t0, s); elapsed != 0 || d.Count != 0 {
		t.Fatalf("nil window delta = %v over %v", d, elapsed)
	}

	if NewWindow(0, t0).span != time.Minute {
		t.Fatal("zero span should default to one minute")
	}
}
