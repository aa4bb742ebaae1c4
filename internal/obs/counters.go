package obs

import (
	"fmt"
	"sync/atomic"
)

// FilterDelta is the filter-effectiveness ledger as plain integers:
// the batch a kernel accumulates and folds into FilterCounters once per
// invocation (keeping the hot loops free of atomics), and the value
// FilterCounters.Snapshot reports. The fields obey the conservation law
//
//	Generated = PrunedPrefix + PrunedSignature + PrunedPosition +
//	            PrunedTriangle + AcceptedUnverified + Verified
//
// i.e. every candidate pair a join enumerates meets exactly one fate.
type FilterDelta struct {
	// Generated counts candidate pairs enumerated by a kernel or the
	// expansion phase — by the enumerating loop itself; the fates below
	// are tallied where they are decided (filters.Resolve for signature,
	// position and verification).
	Generated int64 `json:"generated"`
	// PrunedPrefix counts candidates discarded by the prefix-token
	// rank check while scanning a posting list (the single-item filter
	// applied at the indexed prefix item, §4). On the serving path it
	// counts the indexed rankings that sit on none of a query's posting
	// lists and are never read; there the law is Generated =
	// PrunedPrefix + Verified.
	PrunedPrefix int64 `json:"pruned_prefix"`
	// PrunedSignature counts candidates discarded by the 128-bit
	// item-signature prefilter: an AND+popcount overlap upper bound
	// converted to an admissible Footrule lower bound
	// (filters.SignaturePrune), applied before any merged-pass kernel.
	PrunedSignature int64 `json:"pruned_signature"`
	// PrunedPosition counts candidates discarded by the full position
	// filter (merged pass over both rankings' position indexes).
	PrunedPosition int64 `json:"pruned_position"`
	// PrunedTriangle counts candidates discarded by the
	// triangle-inequality lower bound of the expansion phase (§5.3).
	PrunedTriangle int64 `json:"pruned_triangle"`
	// AcceptedUnverified counts candidates admitted by a triangle
	// upper-bound certificate without computing their distance
	// (Options.UnverifiedPartials).
	AcceptedUnverified int64 `json:"accepted_unverified"`
	// Verified counts Footrule distance computations.
	Verified int64 `json:"verified"`
	// Emitted counts result pairs written by the filter cascades,
	// before final deduplication.
	Emitted int64 `json:"emitted"`
}

// FilterCounters aggregates filter effectiveness across all
// concurrently executing kernels of a run. A nil *FilterCounters is a
// valid no-op sink.
type FilterCounters struct {
	generated          atomic.Int64
	prunedPrefix       atomic.Int64
	prunedSignature    atomic.Int64
	prunedPosition     atomic.Int64
	prunedTriangle     atomic.Int64
	acceptedUnverified atomic.Int64
	verified           atomic.Int64
	emitted            atomic.Int64
}

// Add folds one batch of observations in.
func (c *FilterCounters) Add(d FilterDelta) {
	if c == nil {
		return
	}
	if d.Generated != 0 {
		c.generated.Add(d.Generated)
	}
	if d.PrunedPrefix != 0 {
		c.prunedPrefix.Add(d.PrunedPrefix)
	}
	if d.PrunedSignature != 0 {
		c.prunedSignature.Add(d.PrunedSignature)
	}
	if d.PrunedPosition != 0 {
		c.prunedPosition.Add(d.PrunedPosition)
	}
	if d.PrunedTriangle != 0 {
		c.prunedTriangle.Add(d.PrunedTriangle)
	}
	if d.AcceptedUnverified != 0 {
		c.acceptedUnverified.Add(d.AcceptedUnverified)
	}
	if d.Verified != 0 {
		c.verified.Add(d.Verified)
	}
	if d.Emitted != 0 {
		c.emitted.Add(d.Emitted)
	}
}

// Reset zeroes all counters.
func (c *FilterCounters) Reset() {
	if c == nil {
		return
	}
	c.generated.Store(0)
	c.prunedPrefix.Store(0)
	c.prunedSignature.Store(0)
	c.prunedPosition.Store(0)
	c.prunedTriangle.Store(0)
	c.acceptedUnverified.Store(0)
	c.verified.Store(0)
	c.emitted.Store(0)
}

// Snapshot returns the current counter values as plain integers.
func (c *FilterCounters) Snapshot() FilterDelta {
	if c == nil {
		return FilterDelta{}
	}
	return FilterDelta{
		Generated:          c.generated.Load(),
		PrunedPrefix:       c.prunedPrefix.Load(),
		PrunedSignature:    c.prunedSignature.Load(),
		PrunedPosition:     c.prunedPosition.Load(),
		PrunedTriangle:     c.prunedTriangle.Load(),
		AcceptedUnverified: c.acceptedUnverified.Load(),
		Verified:           c.verified.Load(),
		Emitted:            c.emitted.Load(),
	}
}

// Conserved reports whether the conservation law holds: every
// generated candidate was pruned, accepted unverified, or verified.
func (s FilterDelta) Conserved() bool {
	return s.Generated == s.PrunedPrefix+s.PrunedSignature+s.PrunedPosition+s.PrunedTriangle+s.AcceptedUnverified+s.Verified
}

// IsZero reports whether no candidate was observed.
func (s FilterDelta) IsZero() bool { return s == FilterDelta{} }

func (s FilterDelta) String() string {
	return fmt.Sprintf("generated=%d prunedPrefix=%d prunedSignature=%d prunedPosition=%d prunedTriangle=%d acceptedUnverified=%d verified=%d emitted=%d",
		s.Generated, s.PrunedPrefix, s.PrunedSignature, s.PrunedPosition, s.PrunedTriangle, s.AcceptedUnverified, s.Verified, s.Emitted)
}
