package vj

import (
	"fmt"
	"sync/atomic"

	"rankjoin/internal/ppjoin"
)

// Stats aggregates, across all concurrently executing partition
// kernels, the candidate/verification accounting plus group-level
// observations (posting-list sizes, repartition decisions). All fields
// are safe for concurrent use; a nil *Stats is a valid no-op sink.
type Stats struct {
	Candidates      atomic.Int64
	PrunedPrefix    atomic.Int64
	PrunedSignature atomic.Int64
	PrunedPosition  atomic.Int64
	Verified        atomic.Int64
	Results         atomic.Int64

	Groups       atomic.Int64 // posting lists processed
	GroupRecords atomic.Int64 // records over all posting lists (mean length = GroupRecords / Groups)
	GroupsSplit  atomic.Int64 // posting lists above δ, repartitioned
	LargestGroup atomic.Int64
}

// AddKernel folds one kernel run's counters in.
func (s *Stats) AddKernel(k ppjoin.Stats) {
	if s == nil {
		return
	}
	s.Candidates.Add(k.Candidates)
	s.PrunedPrefix.Add(k.PrunedPrefix)
	s.PrunedSignature.Add(k.PrunedSignature)
	s.PrunedPosition.Add(k.PrunedPosition)
	s.Verified.Add(k.Verified)
	s.Results.Add(k.Results)
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
		Candidates:      s.Candidates.Load(),
		PrunedPrefix:    s.PrunedPrefix.Load(),
		PrunedSignature: s.PrunedSignature.Load(),
		PrunedPosition:  s.PrunedPosition.Load(),
		Verified:        s.Verified.Load(),
		Results:         s.Results.Load(),
		Groups:          s.Groups.Load(),
		GroupRecords:    s.GroupRecords.Load(),
		GroupsSplit:     s.GroupsSplit.Load(),
		LargestGroup:    s.LargestGroup.Load(),
	}
}

// StatsSnapshot is a point-in-time copy of Stats.
type StatsSnapshot struct {
	Candidates      int64
	PrunedPrefix    int64
	PrunedSignature int64
	PrunedPosition  int64
	Verified        int64
	Results         int64
	Groups          int64
	GroupRecords    int64
	GroupsSplit     int64
	LargestGroup    int64
}

func (s StatsSnapshot) String() string {
	return fmt.Sprintf("candidates=%d prunedPrefix=%d prunedSignature=%d prunedPosition=%d verified=%d results=%d groups=%d split=%d largest=%d",
		s.Candidates, s.PrunedPrefix, s.PrunedSignature, s.PrunedPosition, s.Verified, s.Results, s.Groups, s.GroupsSplit, s.LargestGroup)
}
