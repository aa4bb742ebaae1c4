package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"rankjoin/internal/cluster/clustertest"
	"rankjoin/internal/rankings"
	"rankjoin/internal/server"
	"rankjoin/internal/shard"
	"rankjoin/internal/wal"
)

// query is one read: /v1/search at searchTheta or /v1/knn at knnK, by
// indexed id. The query list holds ids; which of the two a read is
// depends on when it is sent (see client.run).
type query struct {
	id  int64
	knn bool
}

// writeOp is one single-ranking /v1/insert or /v1/delete. miss marks a
// delete of an id that never existed, which must move nothing.
type writeOp struct {
	del   bool
	miss  bool
	id    int64
	items []rankings.Item
}

// inputs is everything a workload feeds the program, generated from
// the seed alone.
type inputs struct {
	data     []*rankings.Ranking         // what the index is loaded with
	joinData []*rankings.Ranking         // the prefix of data the joins take
	domain   int                         // items are below this
	byID     map[int64]*rankings.Ranking // data and every insert of writes
	queries  []int64                     // ids to read, in order
	writes   []writeOp
	digest   string
}

const (
	shapeSeed  = 20200330       // EDBT 2020
	insertBase = int64(1) << 32 // ids of inserted rankings start here
	missBase   = int64(1) << 40 // ids no ranking ever has
	// A delete may target an insert only this many operations back, so
	// the insert was acknowledged long before (the model follows the
	// responses either way).
	deleteLag = 2048
)

// readable reports whether reads may query id: every fifth ranking
// (in clustered data the last variant of each seed) is the delete pool,
// and a deleted id would 404.
func readable(id int64) bool { return id%(variants+1) != variants }

func generate(w *workload, seed int64, scale float64) *inputs {
	scaled := func(n int) int { return max(int(float64(n)*scale), 300) }
	// The shape of the data — which items are popular, which rankings
	// are near-duplicates of which, how large each cluster is — comes
	// from shapeSeed and is the same in every run; on ~10^4 rankings it
	// would otherwise move the join times by tens of per cent from seed
	// to seed and bury what a code change does. The workload seed
	// relabels the items, reorders the rankings (ids follow the new
	// order) and draws the query and write lists, so hashing,
	// partitioning, shard placement, tie-breaks and request order all
	// differ between seeds while the amount of work does not.
	shape := func(i uint64) *rng { return newRNG(shapeSeed<<8 | i) }
	stream := func(i uint64) *rng { return newRNG(uint64(seed)<<8 | i) }
	in := &inputs{}
	if sh := w.data.shape; sh != nil {
		in.data = relabel(stream(1), genZipf(shape(1), *sh, scaled(w.data.n), rankK, 0), 1)
	} else {
		// A seed stays in front of its variants, so a prefix holds whole clusters.
		in.data = relabel(stream(1), genClustered(shape(1), scaled(w.data.n)/(variants+1), variants, rankK, clusteredDomain, 0), variants+1)
	}
	in.joinData = in.data
	if w.joinN > 0 {
		in.joinData = in.data[:min(scaled(w.joinN), len(in.data))]
	}
	for _, r := range in.data {
		for _, it := range r.Items {
			in.domain = max(in.domain, int(it)+1)
		}
	}
	in.byID = make(map[int64]*rankings.Ranking, len(in.data)+writeCount)
	var readIDs, pool []int64
	for _, r := range in.data {
		in.byID[r.ID] = r
		if readable(r.ID) {
			readIDs = append(readIDs, r.ID)
		} else {
			pool = append(pool, r.ID)
		}
	}

	qr := stream(3)
	in.queries = make([]int64, queryCount)
	perm := qr.perm(len(readIDs))
	if w.hot {
		hot := perm[:min(hotIDs, len(perm))]
		z := newZipfSampler(qr, hotSkew, len(hot))
		for i := range in.queries {
			in.queries[i] = readIDs[hot[z.rank(qr)]]
		}
	} else {
		for i := range in.queries {
			in.queries[i] = readIDs[perm[i%len(perm)]]
		}
	}

	wr := stream(4)
	in.writes = make([]writeOp, writeCount)
	for i := len(pool) - 1; i > 0; i-- { // delete the pool in seeded order
		j := wr.intn(i + 1)
		pool[i], pool[j] = pool[j], pool[i]
	}
	var inserted []int // positions of inserts, in order
	nextInserted := 0
	for j := range in.writes {
		if wr.intn(5) != 0 {
			base := in.data[wr.intn(len(in.data))]
			r := perturb(wr, base, insertBase+int64(j), 1+wr.intn(2), in.domain)
			in.writes[j] = writeOp{id: r.ID, items: r.Items}
			in.byID[r.ID] = r
			inserted = append(inserted, j)
			continue
		}
		op := writeOp{del: true}
		switch {
		case wr.intn(8) == 0:
			op.miss, op.id = true, missBase+int64(j)
		case len(pool) > 0:
			op.id, pool = pool[0], pool[1:]
		case nextInserted < len(inserted) && inserted[nextInserted] <= j-deleteLag:
			op.id = in.writes[inserted[nextInserted]].id
			nextInserted++
		default:
			op.miss, op.id = true, missBase+int64(j)
		}
		in.writes[j] = op
	}

	d := newDigester()
	d.rankings(in.data)
	d.u64(uint64(len(in.joinData)))
	for _, id := range in.queries {
		d.u64(uint64(id))
	}
	for _, op := range in.writes {
		d.u64(uint64(op.id)<<1 | b2u(op.del))
		for _, it := range op.items {
			d.u64(uint64(it))
		}
	}
	in.digest = d.sum()
	return in
}

// renameItems returns data with its items, all below domain, renamed by
// a permutation of the domain; ids and order stay.
func renameItems(r *rng, data []*rankings.Ranking, domain int) []*rankings.Ranking {
	rename := r.perm(domain)
	out := make([]*rankings.Ranking, len(data))
	for i, rk := range data {
		items := make([]rankings.Item, len(rk.Items))
		for j, it := range rk.Items {
			items[j] = rankings.Item(rename[it])
		}
		out[i] = mustRanking(rk.ID, items)
	}
	return out
}

// relabel returns data with its items renamed and its rankings
// reordered in blocks of group consecutive rankings, ids following the
// new order from 0.
func relabel(r *rng, data []*rankings.Ranking, group int) []*rankings.Ranking {
	domain := 0
	for _, rk := range data {
		for _, it := range rk.Items {
			domain = max(domain, int(it)+1)
		}
	}
	renamed := renameItems(r, data, domain)
	out := make([]*rankings.Ranking, 0, len(data))
	for _, g := range r.perm(len(data) / group) {
		for _, rk := range renamed[g*group : (g+1)*group] {
			out = append(out, mustRanking(int64(len(out)), rk.Items))
		}
	}
	return out
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Serving defaults are rankserved's: 8 shards × 8 pivots, 1024-entry
// cache, 64-query batches, -fsync 2ms.
const (
	indexShards = 8
	fsyncEvery  = 2 * time.Millisecond
)

// stack is the booted program: a durable single node as rankserved
// -wal-dir boots it, or a loopback cluster whose peer 0 the clients
// talk to. idx, mgr and walDir are those of the node behind url.
type stack struct {
	url    string
	idx    *shard.Index
	mgr    *wal.Manager
	srv    *server.Server
	walDir string
	walCfg wal.Config
	owns   func(id int64) bool // whether idx is where id lives
	fleet  *clustertest.Fleet  // nil for a single node
	all    []*shard.Index      // every node's index

	http *http.Server
	done chan struct{}
}

func bootStack(w *workload, in *inputs, dir string, workers int) (*stack, error) {
	walCfg := wal.Config{Shards: indexShards, FsyncEvery: fsyncEvery}
	if w.peers > 1 {
		f, err := clustertest.Boot(w.peers, clustertest.Options{
			Shards: indexShards, JoinWorkers: workers, WALRoot: dir, FsyncEvery: fsyncEvery,
		})
		if err != nil {
			return nil, err
		}
		// clustertest attaches each log at boot; preload unhooked and
		// snapshot, as rankserved does, or every ranking pays an fsync.
		st := &stack{fleet: f, url: f.URL(0), walCfg: walCfg}
		for _, p := range f.Peers {
			p.Index.SetWriteHook(nil)
			st.all = append(st.all, p.Index)
		}
		if err := f.Load(in.data); err != nil {
			f.Close()
			return nil, err
		}
		for _, p := range f.Peers {
			if err := p.WAL.SnapshotAll(p.Index); err != nil {
				f.Close()
				return nil, err
			}
			p.WAL.Attach(p.Index)
		}
		p0 := f.Peers[0]
		st.idx, st.mgr, st.srv = p0.Index, p0.WAL, p0.Server
		st.walDir = filepath.Join(dir, "peer-0")
		st.owns = func(id int64) bool { return p0.Cluster.Owner(id) == 0 }
		return st, waitForPivots(st.all)
	}

	idx := shard.New(shard.Config{Shards: indexShards, PivotsPerShard: 8, Seed: 1})
	mgr, err := wal.Open(dir, walCfg)
	if err != nil {
		return nil, err
	}
	if _, err := mgr.Recover(idx); err != nil {
		return nil, err
	}
	for _, r := range in.data {
		if err := idx.Insert(r); err != nil {
			return nil, err
		}
	}
	if err := mgr.SnapshotAll(idx); err != nil {
		return nil, err
	}
	mgr.Attach(idx)
	srv := server.New(server.Config{Index: idx, WAL: mgr})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st := &stack{
		url: "http://" + ln.Addr().String(), idx: idx, mgr: mgr, srv: srv,
		walDir: dir, walCfg: walCfg, owns: func(int64) bool { return true },
		all:  []*shard.Index{idx},
		http: &http.Server{Handler: srv.Handler()}, done: make(chan struct{}),
	}
	go func() {
		defer close(st.done)
		st.http.Serve(ln) // returns when crash closes the server
	}()
	return st, waitForPivots(st.all)
}

// crash stops the node behind url the way kill -9 would — connections
// reset, the log's user-space buffer dropped — and shuts the rest of
// the stack down. Only bytes already handed to the OS remain in walDir.
func (st *stack) crash() {
	if st.fleet != nil {
		st.fleet.KillHard(0)
		st.fleet.Close()
		return
	}
	st.http.Close()
	<-st.done
	st.mgr.Crash()
	st.srv.Close()
}

// waitForPivots blocks until every shard large enough to pivot has
// built its table, so timing starts in the filtered steady state.
func waitForPivots(idxs []*shard.Index) error {
	const minPivotSize = 16 // shards below this scan linearly and never pivot
	deadline := time.Now().Add(10 * time.Second)
	for {
		ready := true
		for _, idx := range idxs {
			for _, s := range idx.Stats() {
				if s.Size >= minPivotSize && s.Pivots == 0 {
					ready = false
				}
			}
		}
		if ready {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("shards never finished building pivots")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
