package vj

import (
	"fmt"
	"sync/atomic"

	"rankjoin/internal/obs"
)

// Stats aggregates, across all concurrently executing partition
// kernels, the filter ledger plus group-level observations
// (posting-list sizes, repartition decisions). All fields are safe for
// concurrent use; a nil *Stats is a valid no-op sink.
type Stats struct {
	Filters obs.FilterCounters

	Groups       atomic.Int64 // posting lists processed
	GroupRecords atomic.Int64 // records over all posting lists (mean length = GroupRecords / Groups)
	GroupsSplit  atomic.Int64 // posting lists above δ, repartitioned
	LargestGroup atomic.Int64
}

// Tally folds one join task's ledger into the run's Stats (nil-safe)
// and the engine-wide counters fc.
func (s *Stats) Tally(fc *obs.FilterCounters, d obs.FilterDelta) {
	if s != nil {
		s.Filters.Add(d)
	}
	fc.Add(d)
}

func (s *Stats) addGroup(size int, split bool) {
	if s == nil {
		return
	}
	s.Groups.Add(1)
	s.GroupRecords.Add(int64(size))
	if split {
		s.GroupsSplit.Add(1)
	}
	for {
		cur := s.LargestGroup.Load()
		if int64(size) <= cur || s.LargestGroup.CompareAndSwap(cur, int64(size)) {
			return
		}
	}
}

// Snapshot returns plain values for reporting.
func (s *Stats) Snapshot() StatsSnapshot {
	if s == nil {
		return StatsSnapshot{}
	}
	return StatsSnapshot{
		FilterDelta:  s.Filters.Snapshot(),
		Groups:       s.Groups.Load(),
		GroupRecords: s.GroupRecords.Load(),
		GroupsSplit:  s.GroupsSplit.Load(),
		LargestGroup: s.LargestGroup.Load(),
	}
}

// StatsSnapshot is a point-in-time copy of Stats.
type StatsSnapshot struct {
	obs.FilterDelta
	Groups       int64
	GroupRecords int64
	GroupsSplit  int64
	LargestGroup int64
}

func (s StatsSnapshot) String() string {
	return fmt.Sprintf("%v groups=%d split=%d largest=%d",
		s.FilterDelta, s.Groups, s.GroupsSplit, s.LargestGroup)
}
