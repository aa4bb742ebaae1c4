package core

import (
	"fmt"
	"time"

	"rankjoin/internal/obs"
	"rankjoin/internal/vj"
)

// Stats aggregates accounting across the four CL phases. The three
// ledgers are safe for concurrent kernel updates; the phase durations
// and cardinalities are written sequentially by the driver between
// phases. A nil *Stats is a valid no-op sink.
type Stats struct {
	// Clustering receives the filter ledger and group accounting
	// (posting lists, splits) of the clustering-phase VJ run.
	Clustering vj.Stats
	// Joining receives the same for the centroid join.
	Joining vj.Stats
	// Expansion is the expansion phase's filter ledger.
	Expansion obs.FilterCounters

	// Cardinalities observed between phases (driver-written).
	ClusterPairs  int64 // near-duplicate pairs found at θc
	Clusters      int64 // non-singleton clusters |Cm|
	Singletons    int64 // |Cs|
	CentroidPairs int64 // |Rj|
	Results       int64

	// δ planning, for CL-P runs (driver-written; zero for plain CL).
	// Delta is the threshold the joining phase ran with.
	// PredictedListLen is Equation 4's expected posting-list length
	// when the ordering phase planned δ (AutoDelta); it stays zero when
	// the caller supplied δ. Compare it with ObservedListLen for the
	// model error.
	Delta            int
	PredictedListLen float64

	// Phase wall-clock durations (driver-written).
	OrderingTime   time.Duration
	ClusteringTime time.Duration
	JoiningTime    time.Duration
	ExpansionTime  time.Duration
}

// ObservedListLen returns the mean and the maximum length of the
// joining-phase posting lists — what δ was applied to. On an SPMD
// worker these cover the partitions that worker owns.
func (s *Stats) ObservedListLen() (mean float64, longest int64) {
	if s == nil {
		return 0, 0
	}
	if g := s.Joining.Groups.Load(); g > 0 {
		mean = float64(s.Joining.GroupRecords.Load()) / float64(g)
	}
	return mean, s.Joining.LargestGroup.Load()
}

// DeltaReport renders planned δ against observed posting lists as the
// key=value line `rankjoin -stats` and cmd/experiments' fig10 share.
func (s *Stats) DeltaReport() string {
	if s == nil {
		return "<nil stats>"
	}
	mean, longest := s.ObservedListLen()
	return fmt.Sprintf("delta=%d eq4_predicted_len=%.1f observed_mean_len=%.2f observed_max_len=%d",
		s.Delta, s.PredictedListLen, mean, longest)
}

func (s *Stats) String() string {
	if s == nil {
		return "<nil stats>"
	}
	out := fmt.Sprintf(
		"clusterPairs=%d clusters=%d singletons=%d centroidPairs=%d results=%d "+
			"join[%v] expand[%v] times[order=%v cluster=%v join=%v expand=%v]",
		s.ClusterPairs, s.Clusters, s.Singletons, s.CentroidPairs, s.Results,
		s.Joining.Filters.Snapshot(), s.Expansion.Snapshot(),
		s.OrderingTime, s.ClusteringTime, s.JoiningTime, s.ExpansionTime)
	if s.Delta > 0 {
		out += " " + s.DeltaReport()
	}
	return out
}
