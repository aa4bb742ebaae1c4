package obs

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestTraceRingEviction(t *testing.T) {
	r := NewTraceRing(2)
	add := func(id string, slow bool) *TraceRecord {
		rec := &TraceRecord{ID: id, Name: "http /search", Slow: slow}
		r.Add(rec)
		return rec
	}
	a := add("a", false)
	b := add("b", true)
	c := add("c", false) // evicts a from recent
	if r.Get("a") != nil {
		t.Fatal("a should be evicted")
	}
	if r.Get("b") != b || r.Get("c") != c {
		t.Fatal("b and c should be retained")
	}
	// b was evicted from recent by c+d, but must stay addressable via
	// the slow ring.
	d := add("d", false)
	if r.Get("b") != b {
		t.Fatal("slow record must survive recent-ring eviction")
	}
	recent := r.Recent()
	if len(recent) != 2 || recent[0] != d || recent[1] != c {
		t.Fatalf("recent = %v", recent)
	}
	slow := r.Slow()
	if len(slow) != 1 || slow[0] != b {
		t.Fatalf("slow = %v", slow)
	}
	_ = a
}

func TestTraceRingIDReuse(t *testing.T) {
	r := NewTraceRing(2)
	first := &TraceRecord{ID: "x"}
	second := &TraceRecord{ID: "x"}
	r.Add(first)
	r.Add(second)
	if r.Get("x") != second {
		t.Fatal("latest record wins the ID")
	}
	// Evicting `first` must not unmap the newer record with the same ID.
	r.Add(&TraceRecord{ID: "y"})
	if r.Get("x") != second {
		t.Fatal("ID unmapped by stale eviction")
	}
}

func TestTraceRingNil(t *testing.T) {
	var r *TraceRing
	r.Add(&TraceRecord{ID: "z"}) // no-op
	if r.Get("z") != nil || r.Recent() != nil || r.Slow() != nil {
		t.Fatal("nil ring should be inert")
	}
}

func TestCompleteRetroactiveTrace(t *testing.T) {
	base := time.Now().Add(-time.Second)
	tr := NewTracerAt(base)
	s := tr.Complete("http /knn", base.Add(100*time.Millisecond), 50*time.Millisecond,
		String("request_id", "rid-1"))
	if !s.done || s.Duration() != 50*time.Millisecond {
		t.Fatalf("span = done=%v dur=%v", s.done, s.Duration())
	}
	if s.start != 100*time.Millisecond {
		t.Fatalf("start = %v", s.start)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("retroactive trace invalid: %v", err)
	}
	var b strings.Builder
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"http /knn"`) {
		t.Fatalf("trace JSON missing span: %s", b.String())
	}
	// Starts before the tracer base clamp to 0 rather than rendering
	// negative timestamps.
	if s2 := tr.Complete("early", base.Add(-time.Hour), time.Millisecond); s2.start != 0 {
		t.Fatalf("pre-base start = %v", s2.start)
	}
	var nilT *Tracer
	if nilT.Complete("x", base, 0) != nil {
		t.Fatal("nil tracer Complete should return nil")
	}
}

func ExampleTraceRing() {
	r := NewTraceRing(3)
	for i := 1; i <= 4; i++ {
		r.Add(&TraceRecord{ID: fmt.Sprintf("req-%d", i), Slow: i == 2})
	}
	for _, rec := range r.Recent() {
		fmt.Println("recent:", rec.ID)
	}
	for _, rec := range r.Slow() {
		fmt.Println("slow:", rec.ID)
	}
	// Output:
	// recent: req-4
	// recent: req-3
	// recent: req-2
	// slow: req-2
}
