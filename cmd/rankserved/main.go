// Command rankserved is the online serving daemon: a sharded,
// dynamically updatable inverted index over top-k rankings behind an
// HTTP/JSON API. Where cmd/rankjoin and cmd/ranksearch answer offline
// batch questions, rankserved holds a live dataset that absorbs
// Insert/Delete traffic and answers range/kNN queries from the query's
// own posting lists, behind an epoch-invalidated query cache.
//
// Usage:
//
//	rankserved -addr localhost:7357 -data rankings.txt
//
// A daemon is always a peer of a ring; without -peers the ring has one
// member, which owns every id — the same handlers, the same
// /v1/cluster/* plane and the same cluster metrics, with nobody else to
// talk to. Boot N processes with the identical ordered -peers list and
// distinct -self ranks to form one logical service; any peer answers
// the full public API by scatter-gathering across all of them:
//
//	rankserved -addr localhost:7001 -peers localhost:7001,localhost:7002,localhost:7003 -self 0
//	rankserved -addr localhost:7002 -peers localhost:7001,localhost:7002,localhost:7003 -self 1
//	rankserved -addr localhost:7003 -peers localhost:7001,localhost:7002,localhost:7003 -self 2
//
// With -data each peer loads only the rankings it owns on the placement
// ring, so the dataset is sharded, not replicated.
//
// Durability — -wal-dir turns on the write-ahead log and periodic epoch
// snapshots: every acked insert/delete is fsynced first — at once when
// its shard's log is idle, within the -fsync group-commit window when it
// is busy — and a crashed process recovers its exact acked state on the
// next boot. A second process started with
// -follower-of <leader> replicates the leader continuously and serves
// /v1/search and /v1/knn read-only (every write endpoint, the
// peer-local /v1/cluster/insert|delete included, answers 403):
//
//	rankserved -addr localhost:7001 -wal-dir /var/lib/rankserved
//	rankserved -addr localhost:7002 -follower-of localhost:7001
//
//	curl -s localhost:7357/v1/search -d '{"items":[1,2,3,4,5],"theta":0.2}'
//	curl -s localhost:7357/v1/knn -d '{"id":42,"k":10}'
//	curl -s localhost:7357/v1/insert -d '{"rankings":[{"id":7,"items":[9,8,7,6,5]}]}'
//	curl -s localhost:7357/statusz | jq .
//	curl -s localhost:7357/metrics
//	curl -s localhost:7357/debug/traces | jq .
//
// Logs are structured (log/slog); -log-format json emits one JSON
// object per line for log shippers, -log-level debug adds a per-request
// access line. Every response carries an X-Request-Id header (honored
// from the request when present) that retrieves the request's trace
// from /debug/trace/{id} when it was sampled or slow.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: the listener
// stops accepting, in-flight requests drain (bounded by -timeout), and
// the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rankjoin/internal/cluster"
	"rankjoin/internal/obs"
	"rankjoin/internal/rankings"
	"rankjoin/internal/server"
	"rankjoin/internal/shard"
	"rankjoin/internal/wal"
)

func main() {
	var (
		addr        = flag.String("addr", "localhost:7357", "listen address (use :0 for a free port)")
		addrFile    = flag.String("addr-file", "", "write the bound address to this file (for scripts)")
		data        = flag.String("data", "", "preload this dataset file (optional)")
		shards      = flag.Int("shards", 8, "number of index shards")
		cacheSize   = flag.Int("cache", 1024, "query-cache entries (negative disables)")
		timeout     = flag.Duration("timeout", 5*time.Second, "per-request deadline")
		debugAddr   = flag.String("debug-addr", "", "serve expvar+pprof on this address")
		logFormat   = flag.String("log-format", "text", "log output format: text or json")
		logLevel    = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
		traceSample = flag.Int("trace-sample", 64, "head-sample every Nth request per endpoint (negative disables)")
		slowThresh  = flag.Duration("slow", 250*time.Millisecond, "tail-sample and warn-log requests at least this slow (negative disables)")
		traceRing   = flag.Int("trace-ring", 32, "retained recent and slow traces, each")
		peers       = flag.String("peers", "", "comma-separated ordered peer list (host:port); forms a cluster")
		self        = flag.Int("self", 0, "this peer's index into -peers")
		joinTimeout = flag.Duration("join-timeout", 2*time.Minute, "distributed join deadline (cluster mode)")
		walDir      = flag.String("wal-dir", "", "durability directory: write-ahead log + epoch snapshots; recovers on boot")
		fsyncEvery  = flag.Duration("fsync", 2*time.Millisecond, "group-commit window: a busy shard log fsyncs at most once per window and an idle one at once, so acked writes are fsynced within this bound (0 = every commit)")
		snapEvery   = flag.Duration("snapshot-every", time.Minute, "epoch-snapshot interval (0 disables periodic snapshots)")
		followerOf  = flag.String("follower-of", "", "run as a read-only replica of this leader (host:port)")
		replEvery   = flag.Duration("replicate-every", time.Second, "follower poll interval")
	)
	flag.Parse()

	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rankserved:", err)
		os.Exit(2)
	}
	fatal := func(msg string, err error) {
		logger.Error(msg, slog.Any("err", err))
		os.Exit(1)
	}

	if *followerOf != "" && *peers != "" {
		fatal("flags", fmt.Errorf("-follower-of and -peers are mutually exclusive: a follower replicates one leader, it does not join a ring"))
	}
	if *followerOf != "" && *walDir != "" {
		fatal("flags", fmt.Errorf("-follower-of and -wal-dir are mutually exclusive: followers replay the leader's log instead of writing their own"))
	}

	var clu *cluster.Cluster
	if *peers != "" {
		list := strings.Split(*peers, ",")
		for i := range list {
			list[i] = strings.TrimSpace(list[i])
		}
		var err error
		clu, err = cluster.New(cluster.Config{
			Self:        *self,
			Peers:       list,
			JoinTimeout: *joinTimeout,
			Logger:      logger,
		})
		if err != nil {
			fatal("cluster", err)
		}
		logger.Info("cluster peer", slog.Int("self", *self), slog.Int("peers", len(list)))
	}

	// Follower mode: size the index from the leader's shape so shard
	// epochs line up, then replicate instead of preloading.
	if *followerOf != "" {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		leaderShards, leaderK, err := server.ProbeLeader(ctx, *followerOf)
		cancel()
		if err != nil {
			fatal("probe leader", err)
		}
		if leaderShards > 0 && leaderShards != *shards {
			logger.Info("follower: adopting leader shard count",
				slog.Int("flag", *shards), slog.Int("leader", leaderShards))
			*shards = leaderShards
		}
		logger.Info("probed leader", slog.String("leader", *followerOf),
			slog.Int("shards", leaderShards), slog.Int("k", leaderK))
		if *data != "" {
			logger.Warn("follower: ignoring -data; state comes from the leader", slog.String("file", *data))
			*data = ""
		}
	}

	idx := shard.New(shard.Config{Shards: *shards})

	// Durability: recover from the newest snapshot + WAL tail, then
	// attach the write hook so every subsequent ack implies an fsynced
	// record, then start the snapshot ticker.
	var mgr *wal.Manager
	if *walDir != "" {
		var err error
		mgr, err = wal.Open(*walDir, wal.Config{
			Shards:        *shards,
			FsyncEvery:    *fsyncEvery,
			SnapshotEvery: *snapEvery,
			Logger:        logger,
		})
		if err != nil {
			fatal("open wal", err)
		}
		rec, err := mgr.Recover(idx)
		if err != nil {
			fatal("wal recovery", err)
		}
		logger.Info("wal recovered", slog.String("dir", *walDir),
			slog.Int("snapshots", rec.SnapshotsLoaded), slog.Int("invalid_snapshots", rec.InvalidSnapshots),
			slog.Int("records", rec.RecordsReplayed), slog.Int("torn_tails", rec.TornTails),
			slog.Int("rankings", idx.Len()))
		if *data != "" && idx.Len() > 0 {
			// A recovered index already contains everything that was
			// acked; replaying the seed file would just re-log it.
			logger.Info("skipping -data preload: recovered state is newer", slog.String("file", *data))
			*data = ""
		}
		defer mgr.Close()
	}

	if *data != "" {
		f, err := os.Open(*data)
		if err != nil {
			fatal("open dataset", err)
		}
		rs, err := rankings.Read(f)
		f.Close()
		if err != nil {
			fatal("read dataset", err)
		}
		skipped := 0
		for _, r := range rs {
			// In cluster mode each peer indexes only its ring share of
			// the dataset; the scatter path reassembles the full answer.
			if clu != nil && clu.Owner(r.ID) != clu.Self() {
				skipped++
				continue
			}
			if err := idx.Insert(r); err != nil {
				fatal("preload "+*data, err)
			}
		}
		logger.Info("preloaded dataset", slog.String("file", *data),
			slog.Int("rankings", idx.Len()), slog.Int("k", idx.K()), slog.Int("shards", *shards),
			slog.Int("skipped_not_owned", skipped))
	}

	if mgr != nil {
		// Preload ran unhooked (one fsync per ranking would make large
		// seeds crawl); a snapshot pass makes the preloaded state
		// durable in one shot, then the hook covers everything after.
		if idx.Len() > 0 {
			if err := mgr.SnapshotAll(idx); err != nil {
				fatal("snapshot preloaded state", err)
			}
		}
		mgr.Attach(idx)
		mgr.Start(idx)
	}

	// Follower mode: pull the leader's state before serving, then keep
	// polling in the background.
	var replica *server.Replica
	if *followerOf != "" {
		replica = server.NewReplica(*followerOf, idx, *replEvery, logger)
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		err := replica.SyncOnce(ctx)
		cancel()
		if err != nil {
			fatal("initial replication", err)
		}
		replica.Start()
		defer replica.Close()
		logger.Info("following leader", slog.String("leader", *followerOf),
			slog.Int("rankings", idx.Len()), slog.Duration("every", *replEvery))
	}

	srv := server.New(server.Config{
		Index:            idx,
		CacheSize:        *cacheSize,
		RequestTimeout:   *timeout,
		Logger:           logger,
		TraceSampleEvery: *traceSample,
		SlowThreshold:    *slowThresh,
		TraceRingSize:    *traceRing,
		Cluster:          clu,
		WAL:              mgr,
		Replica:          replica,
	})
	defer srv.Close()

	if *debugAddr != "" {
		obs.Publish("rankserved", func() any { return srv.Status() })
		dbg, err := obs.ServeDebug(*debugAddr)
		if err != nil {
			fatal("debug listener", err)
		}
		defer dbg.Close()
		logger.Info("debug listener up", slog.String("url", "http://"+dbg.Addr()+"/debug/vars"))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("listen", err)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			fatal("write addr-file", err)
		}
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	logger.Info("serving", slog.String("addr", ln.Addr().String()),
		slog.Int("shards", *shards),
		slog.Int("cache", *cacheSize), slog.Int("trace_sample", *traceSample),
		slog.Duration("slow", *slowThresh))

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		logger.Info("draining", slog.String("signal", sig.String()))
		ctx, cancel := context.WithTimeout(context.Background(), *timeout+2*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			logger.Error("shutdown", slog.Any("err", err))
			os.Exit(1)
		}
		logger.Info("drained, bye")
	case err := <-errCh:
		if err != http.ErrServerClosed {
			fatal("serve", err)
		}
	}
}

// buildLogger assembles the shared slog logger from the -log-format and
// -log-level flags.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q: want text or json", format)
	}
}
