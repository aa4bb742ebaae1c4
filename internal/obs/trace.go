package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Tracer records a forest of spans for one pipeline run. Create one
// with NewTracer and hand it to the engine context; a nil *Tracer
// disables tracing at the cost of a nil check per instrumentation
// site.
//
// Two span flavours exist, matching the two shapes of work in the
// engine:
//
//   - scopes (StartScope) are driver-side sequential phases — "the
//     clustering phase", "the dedup stage". A scope becomes the
//     current attachment point: spans started without an explicit
//     parent nest under it. Scopes inherit their parent's track.
//
//   - tasks (StartTask) are concurrently executing units — shuffle
//     materializations, per-partition kernel tasks. Each task leases
//     its own track (the Chrome trace "tid") for the duration of the
//     span, so concurrent siblings never overlap on one track and the
//     exported trace renders correctly in Perfetto.
type Tracer struct {
	base time.Time

	mu        sync.Mutex
	roots     []*Span
	current   *Span
	freeTrack []int
	nextTrack int
}

// NewTracer starts an empty trace; the wall-clock zero of all spans is
// the moment of this call.
func NewTracer() *Tracer {
	return &Tracer{base: time.Now(), nextTrack: 1}
}

// NewTracerAt starts an empty trace whose span-time zero is base — used
// to reconstruct a trace for an event that already happened (the tail
// sampler building a retroactive trace for a slow request it did not
// head-sample).
func NewTracerAt(base time.Time) *Tracer {
	return &Tracer{base: base, nextTrack: 1}
}

// Complete records an already-finished root span: a span that started
// at the given wall-clock time and ran for dur. It is the retroactive
// counterpart of StartScope+End for work observed only after the fact;
// the returned span is done and never needs End. Returns nil on a nil
// tracer.
func (t *Tracer) Complete(name string, start time.Time, dur time.Duration, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	if dur < 0 {
		dur = 0
	}
	s := &Span{tracer: t, name: name, start: start.Sub(t.base), dur: dur, done: true, attrs: attrs}
	if s.start < 0 {
		s.start = 0
	}
	t.attach(nil, s)
	return s
}

// Span is one timed region of the trace. All methods are safe on a
// nil receiver (they no-op and return nil), so call sites need no
// enabled-checks beyond holding a possibly-nil span.
type Span struct {
	tracer *Tracer
	parent *Span
	name   string
	task   bool
	track  int
	start  time.Duration // since tracer.base

	mu       sync.Mutex
	attrs    []Attr
	children []*Span
	dur      time.Duration
	done     bool
}

func (t *Tracer) now() time.Duration { return time.Since(t.base) }

func (t *Tracer) acquireTrack() int {
	// Smallest free track keeps the exported trace compact: the number
	// of tracks is the maximum concurrency seen, not the task count.
	if len(t.freeTrack) > 0 {
		best := 0
		for i := 1; i < len(t.freeTrack); i++ {
			if t.freeTrack[i] < t.freeTrack[best] {
				best = i
			}
		}
		track := t.freeTrack[best]
		t.freeTrack = append(t.freeTrack[:best], t.freeTrack[best+1:]...)
		return track
	}
	track := t.nextTrack
	t.nextTrack++
	return track
}

func (t *Tracer) releaseTrack(track int) {
	t.freeTrack = append(t.freeTrack, track)
}

func (t *Tracer) attach(parent *Span, s *Span) {
	if parent == nil {
		t.mu.Lock()
		t.roots = append(t.roots, s)
		t.mu.Unlock()
		return
	}
	parent.mu.Lock()
	parent.children = append(parent.children, s)
	parent.mu.Unlock()
}

// StartScope opens a sequential driver-side span under the current
// scope and makes it current. Returns nil on a nil tracer.
func (t *Tracer) StartScope(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	parent := t.current
	track := 0
	if parent != nil {
		track = parent.track
	}
	s := &Span{tracer: t, parent: parent, name: name, track: track, start: t.now(), attrs: attrs}
	t.current = s
	t.mu.Unlock()
	t.attach(parent, s)
	return s
}

// StartTask opens a concurrent span under the current scope on a
// leased track. Returns nil on a nil tracer.
func (t *Tracer) StartTask(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	parent := t.current
	track := t.acquireTrack()
	t.mu.Unlock()
	s := &Span{tracer: t, parent: parent, name: name, task: true, track: track, start: t.now(), attrs: attrs}
	t.attach(parent, s)
	return s
}

// StartTask opens a concurrent child span on a leased track, with s as
// the explicit parent (used by engine stages that know their owner,
// e.g. the per-partition tasks of one shuffle).
func (s *Span) StartTask(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	t := s.tracer
	t.mu.Lock()
	track := t.acquireTrack()
	t.mu.Unlock()
	c := &Span{tracer: t, parent: s, name: name, task: true, track: track, start: t.now(), attrs: attrs}
	t.attach(s, c)
	return c
}

// StartChild opens a sequential child span inheriting s's track. It
// does not become the tracer's current scope.
func (s *Span) StartChild(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	t := s.tracer
	c := &Span{tracer: t, parent: s, name: name, track: s.track, start: t.now(), attrs: attrs}
	t.attach(s, c)
	return c
}

// End closes the span, recording its duration. Ending a scope restores
// its parent as the tracer's current scope; ending a task releases its
// track for reuse. End is idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.tracer
	end := t.now()
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.done = true
	s.dur = end - s.start
	s.mu.Unlock()
	t.mu.Lock()
	if s.task {
		t.releaseTrack(s.track)
	} else if t.current == s {
		t.current = s.parent
	}
	t.mu.Unlock()
}

// SetAttr attaches or replaces a string attribute on the span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			s.mu.Unlock()
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// SetInt attaches or replaces an integer attribute on the span.
func (s *Span) SetInt(key string, value int64) {
	s.SetAttr(key, fmt.Sprintf("%d", value))
}

// Name returns the span name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns the recorded duration (0 while the span is open).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dur
}

// Attrs returns a copy of the span attributes.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Attr(nil), s.attrs...)
}

// Children returns the child spans ordered by start time.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	out := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

// Roots returns the top-level spans ordered by start time.
func (t *Tracer) Roots() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]*Span(nil), t.roots...)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

// traceEvent is one Chrome trace-event (the "X" complete-event form,
// plus "M" metadata). See the Trace Event Format spec; Perfetto and
// chrome://tracing both load it.
type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  *float64          `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

type traceFile struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []traceEvent `json:"traceEvents"`
}

// WriteChromeTrace exports the whole trace as Chrome trace-event JSON.
// Spans still open are exported with their elapsed time so far and an
// "unfinished" argument.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("obs: nil tracer has no trace")
	}
	file := traceFile{DisplayTimeUnit: "ms"}
	file.TraceEvents = append(file.TraceEvents, traceEvent{
		Name: "process_name", Ph: "M", PID: 1,
		Args: map[string]string{"name": "rankjoin"},
	})
	now := t.now()
	var walk func(s *Span)
	walk = func(s *Span) {
		s.mu.Lock()
		dur, done := s.dur, s.done
		attrs := append([]Attr(nil), s.attrs...)
		s.mu.Unlock()
		if !done {
			dur = now - s.start
		}
		cat := "scope"
		if s.task {
			cat = "task"
		}
		var args map[string]string
		if len(attrs) > 0 || !done {
			args = make(map[string]string, len(attrs)+1)
			for _, a := range attrs {
				args[a.Key] = a.Value
			}
			if !done {
				args["unfinished"] = "true"
			}
		}
		d := float64(dur.Nanoseconds()) / 1e3
		file.TraceEvents = append(file.TraceEvents, traceEvent{
			Name: s.name, Cat: cat, Ph: "X",
			TS: float64(s.start.Nanoseconds()) / 1e3, Dur: &d,
			PID: 1, TID: s.track, Args: args,
		})
		for _, c := range s.Children() {
			walk(c)
		}
	}
	for _, r := range t.Roots() {
		walk(r)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(file)
}

// Tree renders the span forest as an indented text tree with durations
// and attributes.
func (t *Tracer) Tree() string { return t.TreeString(0, true) }

// TreeString renders the span forest as an indented text tree.
// maxDepth limits the rendered depth (0 = unlimited); withDetail adds
// durations and attributes (turn it off for deterministic output in
// tests and examples).
func (t *Tracer) TreeString(maxDepth int, withDetail bool) string {
	if t == nil {
		return ""
	}
	var b strings.Builder
	var walk func(s *Span, depth int)
	walk = func(s *Span, depth int) {
		if maxDepth > 0 && depth >= maxDepth {
			return
		}
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(s.Name())
		if withDetail {
			fmt.Fprintf(&b, " %v", s.Duration().Round(time.Microsecond))
			for _, a := range s.Attrs() {
				fmt.Fprintf(&b, " %s=%s", a.Key, a.Value)
			}
		}
		b.WriteByte('\n')
		for _, c := range s.Children() {
			walk(c, depth+1)
		}
	}
	for _, r := range t.Roots() {
		walk(r, 0)
	}
	return b.String()
}

// Validate checks the structural invariants of a finished trace: every
// span ended, every child within its parent's bounds, and no two
// siblings overlapping on the same track. Concurrent siblings are fine
// — tasks lease distinct tracks — so a violation means instrumentation
// misuse (a span never ended, or sequential spans interleaved).
func (t *Tracer) Validate() error {
	if t == nil {
		return nil
	}
	var check func(s *Span) error
	check = func(s *Span) error {
		s.mu.Lock()
		done, dur := s.done, s.dur
		s.mu.Unlock()
		if !done {
			return fmt.Errorf("obs: span %q not ended", s.name)
		}
		end := s.start + dur
		children := s.Children()
		for _, c := range children {
			c.mu.Lock()
			cdone, cdur := c.done, c.dur
			c.mu.Unlock()
			if !cdone {
				return fmt.Errorf("obs: span %q not ended", c.name)
			}
			if c.start < s.start || c.start+cdur > end {
				return fmt.Errorf("obs: span %q [%v,%v] outside parent %q [%v,%v]",
					c.name, c.start, c.start+cdur, s.name, s.start, end)
			}
		}
		if err := checkTrackOverlap(children); err != nil {
			return err
		}
		for _, c := range children {
			if err := check(c); err != nil {
				return err
			}
		}
		return nil
	}
	roots := t.Roots()
	if err := checkTrackOverlap(roots); err != nil {
		return err
	}
	for _, r := range roots {
		if err := check(r); err != nil {
			return err
		}
	}
	return nil
}

// checkTrackOverlap verifies that sibling spans sharing a track are
// disjoint in time. Spans are assumed ended and pre-sorted by start.
func checkTrackOverlap(siblings []*Span) error {
	lastEnd := make(map[int]struct {
		end  time.Duration
		name string
	})
	for _, s := range siblings {
		prev, seen := lastEnd[s.track]
		if seen && s.start < prev.end {
			return fmt.Errorf("obs: siblings %q and %q overlap on track %d", prev.name, s.name, s.track)
		}
		lastEnd[s.track] = struct {
			end  time.Duration
			name string
		}{end: s.start + s.Duration(), name: s.name}
	}
	return nil
}
