// Package clustertest boots a real multi-peer rankjoin cluster inside
// one process: every peer gets its own shard index, server, cluster
// runtime, and TCP listener, and peers talk to each other over actual
// HTTP — the same code path N separate rankserved processes exercise,
// minus the process boundary. Used by the e2e tests and the benchmark
// module's cluster3 workload; it returns errors instead of depending on
// testing.T.
package clustertest

import (
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"rankjoin/internal/cluster"
	"rankjoin/internal/rankings"
	"rankjoin/internal/server"
	"rankjoin/internal/shard"
	"rankjoin/internal/wal"
)

// Options tunes the fleet; zero values take the documented defaults.
type Options struct {
	// Shards per peer index (0 = 2).
	Shards int
	// RPCTimeout, HedgeDelay, JoinTimeout, ProbeEvery forward into
	// cluster.Config (zeros take its defaults).
	RPCTimeout  time.Duration
	HedgeDelay  time.Duration
	JoinTimeout time.Duration
	ProbeEvery  time.Duration
	// JoinWorkers per peer (0 = 2, deliberately small: N peers × W
	// workers goroutines share one test process).
	JoinWorkers int
	// WALRoot, when set, gives every peer a write-ahead log under
	// WALRoot/peer-<i>, enabling KillHard + Restart crash drills.
	WALRoot string
	// FsyncEvery forwards into each peer's wal.Config.
	FsyncEvery time.Duration
	// Logger for all peers (nil discards).
	Logger *slog.Logger
}

// Peer is one booted cluster member.
type Peer struct {
	Addr    string
	Cluster *cluster.Cluster
	Server  *server.Server
	Index   *shard.Index
	WAL     *wal.Manager // nil unless Options.WALRoot was set

	ln   net.Listener
	http *http.Server
	done chan struct{}
}

// Fleet is a booted cluster.
type Fleet struct {
	Addrs []string
	Peers []*Peer

	opt Options
}

// Boot starts an n-peer cluster on loopback ports. Close the fleet
// when done.
func Boot(n int, opt Options) (*Fleet, error) {
	if n <= 0 {
		return nil, fmt.Errorf("clustertest: need at least one peer, got %d", n)
	}
	if opt.Shards == 0 {
		opt.Shards = 2
	}
	if opt.JoinWorkers == 0 {
		opt.JoinWorkers = 2
	}
	logger := opt.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}

	// Addresses must be known before any cluster.Config can be built,
	// so listen first, then assemble the peers.
	f := &Fleet{}
	lns := make([]net.Listener, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, fmt.Errorf("clustertest: listen peer %d: %w", i, err)
		}
		lns = append(lns, ln)
		f.Addrs = append(f.Addrs, ln.Addr().String())
	}

	f.opt = opt
	for i := 0; i < n; i++ {
		p, err := f.bootPeer(i, lns[i])
		if err != nil {
			f.Close()
			return nil, err
		}
		f.Peers = append(f.Peers, p)
	}
	return f, nil
}

// bootPeer assembles and starts one peer on an already-bound listener,
// recovering from its WAL directory when the fleet is durable.
func (f *Fleet) bootPeer(i int, ln net.Listener) (*Peer, error) {
	logger := f.opt.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	clu, err := cluster.New(cluster.Config{
		Self:        i,
		Peers:       f.Addrs,
		RPCTimeout:  f.opt.RPCTimeout,
		HedgeDelay:  f.opt.HedgeDelay,
		JoinTimeout: f.opt.JoinTimeout,
		ProbeEvery:  f.opt.ProbeEvery,
		JoinWorkers: f.opt.JoinWorkers,
		Logger:      logger,
	})
	if err != nil {
		return nil, err
	}
	idx := shard.New(shard.Config{Shards: f.opt.Shards})
	var mgr *wal.Manager
	if f.opt.WALRoot != "" {
		mgr, err = wal.Open(filepath.Join(f.opt.WALRoot, fmt.Sprintf("peer-%d", i)), wal.Config{
			Shards:     f.opt.Shards,
			FsyncEvery: f.opt.FsyncEvery,
			Logger:     logger,
		})
		if err != nil {
			return nil, fmt.Errorf("clustertest: open wal peer %d: %w", i, err)
		}
		if _, err := mgr.Recover(idx); err != nil {
			return nil, fmt.Errorf("clustertest: recover peer %d: %w", i, err)
		}
		mgr.Attach(idx)
	}
	srv := server.New(server.Config{Index: idx, Cluster: clu, Logger: logger, WAL: mgr})
	p := &Peer{
		Addr:    f.Addrs[i],
		Cluster: clu,
		Server:  srv,
		Index:   idx,
		WAL:     mgr,
		ln:      ln,
		http:    &http.Server{Handler: srv.Handler()},
		done:    make(chan struct{}),
	}
	go func(p *Peer) {
		defer close(p.done)
		p.http.Serve(p.ln)
	}(p)
	return p, nil
}

// Load distributes rankings across the fleet by ring ownership,
// inserting directly into each owner's index (no HTTP) — the same
// placement rankserved -data applies at boot.
func (f *Fleet) Load(rs []*rankings.Ranking) error {
	for _, r := range rs {
		owner := f.Peers[0].Cluster.Owner(r.ID)
		if err := f.Peers[owner].Index.Insert(r); err != nil {
			return fmt.Errorf("clustertest: load id %d into peer %d: %w", r.ID, owner, err)
		}
	}
	return nil
}

// Kill hard-stops peer i without draining — the listener closes and
// in-flight connections reset, like a SIGKILL. The peer stays in every
// other member's configuration, so its shard of the data is simply
// gone until something answers at that address again.
func (f *Fleet) Kill(i int) {
	p := f.Peers[i]
	p.http.Close()
	p.ln.Close()
	<-p.done
	p.Server.Close()
	if p.WAL != nil {
		p.WAL.Close()
	}
}

// KillHard crashes peer i with SIGKILL semantics: the listener resets
// in-flight connections and the peer's WAL drops its user-space write
// buffer — only bytes the OS already has (everything acked, thanks to
// ack-after-fsync) survive for Restart to recover.
func (f *Fleet) KillHard(i int) {
	p := f.Peers[i]
	p.http.Close()
	p.ln.Close()
	<-p.done
	if p.WAL != nil {
		p.WAL.Crash()
	}
	p.Server.Close()
}

// Restart reboots a killed peer on its original address, recovering
// its index from the snapshot + WAL tail exactly as a rebooted
// rankserved process would. Requires Options.WALRoot (a non-durable
// peer has nothing to recover from).
func (f *Fleet) Restart(i int) error {
	if f.opt.WALRoot == "" {
		return fmt.Errorf("clustertest: Restart(%d) needs Options.WALRoot", i)
	}
	select {
	case <-f.Peers[i].done:
	default:
		return fmt.Errorf("clustertest: peer %d is still running", i)
	}
	// The old listener just closed; the port can lag a beat before it
	// rebinds.
	var ln net.Listener
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		ln, err = net.Listen("tcp", f.Addrs[i])
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("clustertest: rebind peer %d: %w", i, err)
	}
	p, err := f.bootPeer(i, ln)
	if err != nil {
		ln.Close()
		return err
	}
	f.Peers[i] = p
	return nil
}

// URL returns the base URL of peer i.
func (f *Fleet) URL(i int) string { return "http://" + f.Addrs[i] }

// Close stops every still-running peer.
func (f *Fleet) Close() {
	for _, p := range f.Peers {
		select {
		case <-p.done: // already killed
		default:
			p.http.Close()
			p.ln.Close()
			<-p.done
			p.Server.Close()
			if p.WAL != nil {
				p.WAL.Close()
			}
		}
	}
}
