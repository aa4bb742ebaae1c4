package obs

import (
	"sync"
	"time"
)

// Window turns a cumulative Histogram into rolling-window statistics —
// the "current QPS, recent p99" view a status page needs next to the
// since-boot totals. It holds a bounded ring of timestamped cumulative
// snapshots; Delta subtracts the snapshot taken one window span ago
// from the present one, yielding the interval's own histogram
// (HistogramSnapshot.Sub).
//
// The design deliberately keeps the observation hot path untouched:
// nothing is recorded per observation — a periodic ticker (the server's
// window loop) calls Record with a fresh cumulative snapshot, so all
// windowing cost lands on the ticker and the scrape path. When no
// snapshot old enough exists yet (early uptime, or ticks disabled) the
// delta degrades gracefully to "since the oldest snapshot available" /
// "since start", with the true elapsed time reported alongside so rates
// stay honest.
type Window struct {
	span time.Duration

	mu      sync.Mutex
	start   time.Time
	entries []windowEntry // ascending by time
}

type windowEntry struct {
	t    time.Time
	snap HistogramSnapshot
}

// NewWindow creates a window of the given span (e.g. 60s), anchored at
// start for the pre-first-snapshot fallback.
func NewWindow(span time.Duration, start time.Time) *Window {
	if span <= 0 {
		span = time.Minute
	}
	return &Window{span: span, start: start}
}

// Record appends one cumulative snapshot taken at t and prunes entries
// that can no longer serve as a delta base: everything older than
// t−span except the newest such entry (the base for the next Delta).
// Out-of-order timestamps are dropped. A nil *Window is a no-op sink.
func (w *Window) Record(t time.Time, snap HistogramSnapshot) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if n := len(w.entries); n > 0 && !w.entries[n-1].t.Before(t) {
		return
	}
	w.entries = append(w.entries, windowEntry{t: t, snap: snap})
	cut := t.Add(-w.span)
	// Keep the newest entry at or before the cut as the delta base.
	base := 0
	for base+1 < len(w.entries) && !w.entries[base+1].t.After(cut) {
		base++
	}
	if base > 0 {
		w.entries = append(w.entries[:0], w.entries[base:]...)
	}
}

// Delta returns the observations of (roughly) the last window span:
// cur minus the ring snapshot closest to now−span, plus the exact
// elapsed time that delta covers (for rate computation). With an empty
// ring the delta is cur itself over the time since the window's start
// anchor.
func (w *Window) Delta(now time.Time, cur HistogramSnapshot) (time.Duration, HistogramSnapshot) {
	if w == nil {
		return 0, HistogramSnapshot{}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.entries) == 0 {
		elapsed := now.Sub(w.start)
		if elapsed <= 0 {
			elapsed = time.Nanosecond
		}
		return elapsed, cur
	}
	cut := now.Add(-w.span)
	base := w.entries[0]
	for _, e := range w.entries[1:] {
		if e.t.After(cut) {
			break
		}
		base = e
	}
	elapsed := now.Sub(base.t)
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	return elapsed, cur.Sub(base.snap)
}
