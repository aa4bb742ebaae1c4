package server

import (
	"bytes"
	"net/http"
	"strconv"
	"time"

	"rankjoin/internal/obs"
)

// handleMetrics renders the Prometheus text exposition (format 0.0.4)
// of every serving-plane series. Names follow prometheus conventions:
// a rankserved_ prefix, _total suffixes on counters, base units
// (seconds) on durations. The handler assembles the page in one buffer
// and writes it at once; it holds no lock across families, so the page
// is a near-point-in-time snapshot, not a transactional one — exactly
// the consistency a scraper gets from any live process.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) error {
	var buf bytes.Buffer
	buf.Grow(16 << 10)
	m := obs.NewMetricWriter(&buf)

	m.Metric("rankserved_uptime_seconds", "gauge", "Seconds since the server started.")
	m.Value("rankserved_uptime_seconds", time.Since(s.start).Seconds())

	// --- per-endpoint request series ---
	paths := s.sortedPaths()
	m.Metric("rankserved_http_requests_total", "counter", "Requests served, by endpoint.")
	for _, p := range paths {
		st := s.requests[p]
		st.mu.Lock()
		count := st.count
		st.mu.Unlock()
		m.Int("rankserved_http_requests_total", count, obs.Label{Name: "path", Value: p})
	}
	m.Metric("rankserved_http_request_errors_total", "counter", "Requests that returned an error status, by endpoint.")
	for _, p := range paths {
		st := s.requests[p]
		st.mu.Lock()
		errs := st.errors
		st.mu.Unlock()
		m.Int("rankserved_http_request_errors_total", errs, obs.Label{Name: "path", Value: p})
	}
	m.Metric("rankserved_http_request_duration_seconds", "histogram", "Request latency, by endpoint.")
	for _, p := range paths {
		m.Histogram("rankserved_http_request_duration_seconds",
			s.requests[p].latency.Snapshot(), 1e6, obs.Label{Name: "path", Value: p})
	}

	// --- query cache ---
	hits, misses := s.cache.stats()
	m.Metric("rankserved_cache_hits_total", "counter", "Query-cache hits.")
	m.Int("rankserved_cache_hits_total", hits)
	m.Metric("rankserved_cache_misses_total", "counter", "Query-cache misses.")
	m.Int("rankserved_cache_misses_total", misses)
	m.Metric("rankserved_cache_entries", "gauge", "Query-cache entries resident.")
	m.Int("rankserved_cache_entries", int64(s.cache.len()))
	m.Metric("rankserved_cache_capacity", "gauge", "Query-cache capacity.")
	m.Int("rankserved_cache_capacity", int64(s.cache.capacity()))

	m.Metric("rankserved_sweeps_total", "counter", "Local shard sweeps, one per query-cache miss.")
	m.Int("rankserved_sweeps_total", s.sweeps.Load())

	// --- filter ledger (conservation: generated = sum of fates) ---
	f := s.idx.Filters().Snapshot()
	m.Metric("rankserved_filter_generated_total", "counter", "Candidates enumerated by index sweeps.")
	m.Int("rankserved_filter_generated_total", f.Generated)
	m.Metric("rankserved_filter_candidates_total", "counter", "Candidate fates; values across fates sum to rankserved_filter_generated_total.")
	for _, fc := range []struct {
		fate string
		n    int64
	}{
		{"pruned_prefix", f.PrunedPrefix},
		{"pruned_signature", f.PrunedSignature},
		{"pruned_position", f.PrunedPosition},
		{"pruned_triangle", f.PrunedTriangle},
		{"accepted_unverified", f.AcceptedUnverified},
		{"verified", f.Verified},
	} {
		m.Int("rankserved_filter_candidates_total", fc.n, obs.Label{Name: "fate", Value: fc.fate})
	}
	m.Metric("rankserved_filter_emitted_total", "counter", "Result hits emitted by index sweeps.")
	m.Int("rankserved_filter_emitted_total", f.Emitted)

	// --- index + shards ---
	m.Metric("rankserved_index_size", "gauge", "Rankings indexed.")
	m.Int("rankserved_index_size", int64(s.idx.Len()))
	m.Metric("rankserved_index_k", "gauge", "Established ranking length (0 until first insert).")
	m.Int("rankserved_index_k", int64(s.idx.K()))
	stats := s.idx.Stats()
	m.Metric("rankserved_shard_size", "gauge", "Rankings per shard.")
	for i, st := range stats {
		m.Int("rankserved_shard_size", int64(st.Size), shardLabel(i))
	}
	m.Metric("rankserved_shard_epoch", "gauge", "Per-shard mutation epoch.")
	for i, st := range stats {
		m.Int("rankserved_shard_epoch", int64(st.Epoch), shardLabel(i))
	}
	m.Metric("rankserved_shard_pivots", "gauge", "Pivot-table width per shard.")
	for i, st := range stats {
		m.Int("rankserved_shard_pivots", int64(st.Pivots), shardLabel(i))
	}
	m.Metric("rankserved_shard_repivots_total", "counter", "Completed background pivot selections per shard.")
	for i, st := range stats {
		m.Int("rankserved_shard_repivots_total", st.RePivots, shardLabel(i))
	}

	// --- trace sampling ---
	m.Metric("rankserved_traces_sampled_total", "counter", "Requests head-sampled into full traces.")
	m.Int("rankserved_traces_sampled_total", s.sampledTotal.Load())
	m.Metric("rankserved_slow_requests_total", "counter", "Requests over the slow threshold (tail-sampled).")
	m.Int("rankserved_slow_requests_total", s.slowTotal.Load())

	// --- cluster (a ring of one has no peer series: the loops skip self) ---
	cs := s.cluster.StatusSnapshot()
	lat := s.cluster.PeerLatencySnapshots()
	m.Metric("rankserved_peer_rpc_total", "counter", "Outbound peer RPCs (hedged duplicates count once), by peer.")
	for _, p := range cs.Peers {
		if p.Self {
			continue
		}
		m.Int("rankserved_peer_rpc_total", p.RPCs, peerLabel(p.Addr))
	}
	m.Metric("rankserved_peer_rpc_errors_total", "counter", "Peer RPCs that failed after retry, by peer.")
	for _, p := range cs.Peers {
		if p.Self {
			continue
		}
		m.Int("rankserved_peer_rpc_errors_total", p.Errors, peerLabel(p.Addr))
	}
	m.Metric("rankserved_peer_rpc_hedges_total", "counter", "Second attempts launched (tail hedge or fast-fail retry), by peer.")
	for _, p := range cs.Peers {
		if p.Self {
			continue
		}
		m.Int("rankserved_peer_rpc_hedges_total", p.Hedges, peerLabel(p.Addr))
	}
	m.Metric("rankserved_peer_rpc_duration_seconds", "histogram", "Peer RPC latency (whole hedged call), by peer.")
	for i, p := range cs.Peers {
		if p.Self {
			continue
		}
		m.Histogram("rankserved_peer_rpc_duration_seconds", lat[i], 1e6, peerLabel(p.Addr))
	}
	m.Metric("rankserved_peer_up", "gauge", "1 when the peer link is healthy, 0 when marked down.")
	for _, p := range cs.Peers {
		if p.Self {
			continue
		}
		up := int64(1)
		if p.Down {
			up = 0
		}
		m.Int("rankserved_peer_up", up, peerLabel(p.Addr))
	}
	m.Metric("rankserved_cluster_partial_responses_total", "counter", "Scatter-gather answers served degraded because a peer failed.")
	m.Int("rankserved_cluster_partial_responses_total", cs.Partials)
	m.Metric("rankserved_cluster_joins_total", "counter", "Distributed join jobs started on this peer.")
	m.Int("rankserved_cluster_joins_total", cs.Joins)
	m.Metric("rankserved_cluster_shuffle_frames_sent_total", "counter", "Shuffle frames posted to peers.")
	m.Int("rankserved_cluster_shuffle_frames_sent_total", cs.FramesSent)
	m.Metric("rankserved_cluster_shuffle_bytes_sent_total", "counter", "Shuffle frame bytes posted to peers.")
	m.Int("rankserved_cluster_shuffle_bytes_sent_total", cs.BytesSent)
	m.Metric("rankserved_cluster_inbox_depth", "gauge", "Buffered shuffle frame slots awaiting their worker.")
	m.Int("rankserved_cluster_inbox_depth", int64(cs.InboxDepth))
	m.Metric("rankserved_cluster_peers", "gauge", "Configured cluster size.")
	m.Int("rankserved_cluster_peers", int64(len(cs.Peers)))

	// --- durability (only when a WAL is attached) ---
	if s.wal != nil {
		ws := s.wal.Stats()
		m.Metric("rankserved_wal_records_total", "counter", "Records appended to the write-ahead log.")
		m.Int("rankserved_wal_records_total", ws.Records)
		m.Metric("rankserved_wal_appended_bytes_total", "counter", "Bytes appended to the WAL (buffered or durable).")
		m.Int("rankserved_wal_appended_bytes_total", ws.AppendedBytes)
		m.Metric("rankserved_wal_durable_bytes_total", "counter", "WAL bytes past fsync; appended minus durable is the at-risk window.")
		m.Int("rankserved_wal_durable_bytes_total", ws.DurableBytes)
		m.Metric("rankserved_wal_fsyncs_total", "counter", "Group-commit fsyncs issued.")
		m.Int("rankserved_wal_fsyncs_total", ws.Fsyncs)
		m.Metric("rankserved_wal_fsync_duration_seconds", "histogram", "fsync latency (one observation per group commit).")
		m.Histogram("rankserved_wal_fsync_duration_seconds", ws.FsyncMicros, 1e6)
		m.Metric("rankserved_wal_snapshots_total", "counter", "Epoch snapshots written.")
		m.Int("rankserved_wal_snapshots_total", ws.Snapshots)
		m.Metric("rankserved_wal_snapshot_errors_total", "counter", "Snapshot attempts that failed.")
		m.Int("rankserved_wal_snapshot_errors_total", ws.SnapshotErrors)
		m.Metric("rankserved_wal_snapshot_age_seconds", "gauge", "Seconds since the last completed snapshot pass (-1 before the first).")
		m.Value("rankserved_wal_snapshot_age_seconds", ws.SnapshotAge)
		m.Metric("rankserved_wal_snapshot_epoch", "gauge", "Epoch captured by the newest snapshot, per shard (WAL below it is reclaimable).")
		for i, e := range ws.SnapshotEpochs {
			m.Int("rankserved_wal_snapshot_epoch", int64(e), shardLabel(i))
		}
	}

	// --- replica (only when following a leader) ---
	if s.replica != nil {
		rs := s.replica.Status()
		m.Metric("rankserved_replica_lag_epochs", "gauge", "Sum over shards of leader epoch minus local epoch at the last poll.")
		m.Int("rankserved_replica_lag_epochs", rs.LagEpochs)
		m.Metric("rankserved_replica_syncs_total", "counter", "Successful replication rounds.")
		m.Int("rankserved_replica_syncs_total", rs.Syncs)
		m.Metric("rankserved_replica_full_shard_syncs_total", "counter", "Shards loaded via full snapshot instead of a WAL delta.")
		m.Int("rankserved_replica_full_shard_syncs_total", rs.FullShardLoads)
		m.Metric("rankserved_replica_records_applied_total", "counter", "WAL records applied from the leader.")
		m.Int("rankserved_replica_records_applied_total", rs.RecordsApplied)
		m.Metric("rankserved_replica_errors_total", "counter", "Replication rounds that failed.")
		m.Int("rankserved_replica_errors_total", rs.Errors)
		m.Metric("rankserved_replica_last_sync_age_seconds", "gauge", "Seconds since the last successful sync (-1 before the first).")
		m.Value("rankserved_replica_last_sync_age_seconds", rs.LastSyncAgeS)
	}

	if err := m.Err(); err != nil {
		return err
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, err := w.Write(buf.Bytes())
	return err
}

func shardLabel(i int) obs.Label {
	return obs.Label{Name: "shard", Value: strconv.Itoa(i)}
}

func peerLabel(addr string) obs.Label {
	return obs.Label{Name: "peer", Value: addr}
}
