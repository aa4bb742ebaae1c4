package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rankjoin/internal/rankings"
	"rankjoin/internal/shard"
	"rankjoin/internal/wal"
)

// recoverCopies times wal.Open + Manager.Recover into a fresh index n
// times, each on a fresh copy of the crashed directory (recovery
// truncates torn tails and opens new segments in place), and checks
// every recovered index against want. Copying is not timed.
func recoverCopies(st *stack, scratch string, want map[int64]*rankings.Ranking, n int) (times []float64, stats wal.RecoveryStats, failed int, notes []string, err error) {
	for i := 0; i < n; i++ {
		dir := filepath.Join(scratch, fmt.Sprintf("recover-%d", i))
		if err := copyTree(st.walDir, dir); err != nil {
			return nil, stats, 0, nil, err
		}
		idx := shard.New(shard.Config{Shards: indexShards, PivotsPerShard: 8, Seed: 1})
		runtime.GC()
		t0 := time.Now()
		mgr, err := wal.Open(dir, st.walCfg)
		if err != nil {
			return nil, stats, 0, nil, err
		}
		stats, err = mgr.Recover(idx)
		times = append(times, ms(time.Since(t0)))
		if cerr := mgr.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, stats, 0, nil, err
		}
		// The recovered shards build their pivots in the background; let
		// them finish so they do not run beside the next timed recovery.
		if err := waitForPivots([]*shard.Index{idx}); err != nil {
			return nil, stats, 0, nil, err
		}
		if why := diffIndex(idx, want); why != "" {
			failed++
			if len(notes) < 3 {
				notes = append(notes, fmt.Sprintf("recovery %d: %s", i, why))
			}
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, stats, 0, nil, err
		}
	}
	return times, stats, failed, notes, nil
}

// diffIndex returns how idx differs from want, or "".
func diffIndex(idx *shard.Index, want map[int64]*rankings.Ranking) string {
	if idx.Len() != len(want) {
		return fmt.Sprintf("recovered %d rankings, acknowledged state has %d", idx.Len(), len(want))
	}
	for id, r := range want {
		got, ok := idx.Get(id)
		if !ok {
			return fmt.Sprintf("acknowledged ranking %d is missing", id)
		}
		if !rankings.Equal(got, r) {
			return fmt.Sprintf("ranking %d recovered with different items", id)
		}
	}
	return ""
}
