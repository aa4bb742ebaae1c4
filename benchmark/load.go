package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rankjoin/internal/rankings"
	"rankjoin/internal/shard"
)

// The load is closed loop: the callers of this system — ranksearch
// -server, a peer doing scatter RPCs, a service waiting on a join —
// each wait for their reply before sending the next request. P clients
// with one keep-alive connection each run in the benchmark process.

type opKind uint8

const (
	opSearch opKind = iota
	opKNN
	opInsert
	opDelete
)

func (k opKind) write() bool { return k >= opInsert }

// sample is one completed request as the client saw it, response
// decoded.
type sample struct {
	done time.Duration // completion, since the phase began
	lat  time.Duration
	kind opKind
}

// readCheck keeps one read's answer for checking after the phase.
type readCheck struct {
	q    query
	hits []shard.Neighbor
}

// cursors are the next entries of the query and the write list. The
// clients of one load share them, so the lists are issued in order
// whichever client is free (a delete then always follows the insert it
// targets by deleteLag acknowledged writes), and they persist across
// phases, so each window continues where the last one stopped.
type cursors struct{ read, write atomic.Int64 }

// client is one closed-loop caller.
type client struct {
	next   *cursors
	reads  int
	writes int
	http   *http.Client
	buf    bytes.Buffer
	body   []byte

	samples []sample
	checks  []readCheck
	acked   []ack
	failed  int
	notes   []string
}

// ack is one acknowledged write and what the server said it did.
type ack struct {
	op      int // index into inputs.writes
	changed int // rankings inserted or deleted
}

const checkEvery = 50 // one read in this many is kept for checking

func newClients(p int) []*client {
	tr := &http.Transport{MaxIdleConns: p, MaxIdleConnsPerHost: p}
	next := new(cursors)
	cs := make([]*client, p)
	for c := range cs {
		cs[c] = &client{next: next, http: &http.Client{Transport: tr, Timeout: 10 * time.Second}}
	}
	return cs
}

func (cl *client) fail(format string, args ...any) {
	cl.failed++
	if len(cl.notes) < 3 {
		cl.notes = append(cl.notes, fmt.Sprintf(format, args...))
	}
}

// post sends body to url+path and decodes the 200 reply into out.
func (cl *client) post(url, path string, out any) error {
	resp, err := cl.http.Post(url+path, "application/json", bytes.NewReader(cl.body))
	if err != nil {
		return err
	}
	cl.buf.Reset()
	_, err = cl.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(cl.buf.Bytes()))
	}
	return json.Unmarshal(cl.buf.Bytes(), out)
}

type readReply struct {
	Hits    []shard.Neighbor `json:"hits"`
	Cached  bool             `json:"cached"`
	Partial bool             `json:"partial"`
}

// readRequest renders q's path and, into buf, its body.
func readRequest(buf []byte, q query) (kind opKind, path string, body []byte) {
	if q.knn {
		return opKNN, "/v1/knn", fmt.Appendf(buf[:0], `{"id":%d,"k":%d}`, q.id, knnK)
	}
	return opSearch, "/v1/search", fmt.Appendf(buf[:0], `{"id":%d,"theta":%g}`, q.id, searchTheta)
}

func (cl *client) read(url string, q query, reply *readReply) (opKind, error) {
	kind, path, body := readRequest(cl.body, q)
	cl.body = body
	return kind, cl.post(url, path, reply)
}

func (cl *client) write(url string, op writeOp) (opKind, int, error) {
	if op.del {
		var reply struct {
			Deleted int `json:"deleted"`
		}
		cl.body = fmt.Appendf(cl.body[:0], `{"ids":[%d]}`, op.id)
		err := cl.post(url, "/v1/delete", &reply)
		return opDelete, reply.Deleted, err
	}
	var reply struct {
		Inserted int `json:"inserted"`
	}
	cl.insertBody(op)
	err := cl.post(url, "/v1/insert", &reply)
	return opInsert, reply.Inserted, err
}

// insertBody renders op as a /v1/insert body into cl.body.
func (cl *client) insertBody(op writeOp) {
	cl.body = fmt.Appendf(cl.body[:0], `{"rankings":[{"id":%d,"items":[`, op.id)
	for i, it := range op.items {
		if i > 0 {
			cl.body = append(cl.body, ',')
		}
		cl.body = fmt.Append(cl.body, it)
	}
	cl.body = append(cl.body, "]}]}"...)
}

// run issues requests until the phase ends, writes or reads. Reads are
// searches in the first half of the phase and kNNs in the second: one
// kNN sweeps as long as three searches, and with the two kinds mixed a
// search's latency is mostly a matter of whether the other client's kNN
// is in the way — its median then sits between two modes and moves by
// a fifth from run to run. A failed, refused or timed-out request is
// counted and the loop goes on.
func (cl *client) run(url string, in *inputs, t0 time.Time, dur time.Duration, write bool, rec *recorder) {
	var reply readReply
	for time.Since(t0) < dur {
		if write {
			i := int(cl.next.write.Add(1) - 1)
			if i >= len(in.writes) {
				return // the list is sized to outlast any run; stop rather than repeat an id
			}
			cl.writes++
			sp := rec.begin("client", "write", -1, i)
			began := time.Now()
			kind, changed, err := cl.write(url, in.writes[i])
			lat := time.Since(began)
			rec.end(sp)
			if err != nil {
				cl.fail("write %d: %v", in.writes[i].id, err)
				continue
			}
			cl.samples = append(cl.samples, sample{done: time.Since(t0), lat: lat, kind: kind})
			cl.acked = append(cl.acked, ack{op: i, changed: changed})
			continue
		}
		i := int(cl.next.read.Add(1) - 1)
		q := query{id: in.queries[i%len(in.queries)], knn: time.Since(t0) >= dur/2}
		cl.reads++
		sp := rec.begin("client", "read", -1, i)
		began := time.Now()
		kind, err := cl.read(url, q, &reply)
		lat := time.Since(began)
		rec.end(sp)
		if err != nil {
			cl.fail("read %d: %v", q.id, err)
			continue
		}
		if reply.Partial {
			cl.fail("read %d: partial answer", q.id)
			continue
		}
		cl.samples = append(cl.samples, sample{done: time.Since(t0), lat: lat, kind: kind})
		if cl.reads%checkEvery == 0 {
			cl.checks = append(cl.checks, readCheck{q: q, hits: append([]shard.Neighbor(nil), reply.Hits...)})
		}
	}
}

// loadPhase runs every client for dur, the last writers of them writing
// and the others reading, and returns when all have stopped. at, when
// non-nil, is called once dur·atShare into the phase on its own
// goroutine (the mid-run snapshot).
func loadPhase(cs []*client, url string, in *inputs, dur time.Duration, writers int, rec *recorder, atShare float64, at func()) {
	for _, cl := range cs {
		cl.samples = cl.samples[:0]
	}
	var wg sync.WaitGroup
	t0 := time.Now()
	for c, cl := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.run(url, in, t0, dur, c >= len(cs)-writers, rec)
		}()
	}
	if at != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Duration(float64(dur) * atShare))
			at()
		}()
	}
	wg.Wait()
}

// loadStats collects one statistic per window — a loadPhase each —
// and reports the median across windows, which is what makes a p99
// repeat; with windows spread over the run, a slow spell of the machine
// moves one window and not the metric.
type loadStats struct {
	qps, p50All, p99 []float64
	// mixQPS is what the reading clients complete per second when every
	// second read is a kNN: the window spends half its time on each kind,
	// which makes seven searches in eight reads, and their rate would say
	// little about the sweep.
	mixQPS   []float64
	p50      map[opKind][]float64
	samples  int
	beyond99 int // samples beyond the p99 in the thinnest window
}

// addWindow summarises the samples of the loadPhase just ended that
// keep selects.
func (ls *loadStats) addWindow(cs []*client, dur time.Duration, keep func(opKind) bool) {
	var all []float64
	byKind := map[opKind][]float64{}
	for _, cl := range cs {
		for _, s := range cl.samples {
			if keep(s.kind) {
				all = append(all, ms(s.lat))
				byKind[s.kind] = append(byKind[s.kind], ms(s.lat))
			}
		}
	}
	sort.Float64s(all)
	n := len(all)
	ls.qps = append(ls.qps, float64(n)/dur.Seconds())
	if n == 0 {
		return
	}
	half := dur.Seconds() / 2
	searches, knns := float64(len(byKind[opSearch]))/half, float64(len(byKind[opKNN]))/half
	ls.mixQPS = append(ls.mixQPS, ratio(2*searches*knns, searches+knns))
	ls.p50All = append(ls.p50All, quantile(all, 0.50))
	ls.p99 = append(ls.p99, quantile(all, 0.99))
	if beyond := n - 1 - int(0.99*float64(n-1)); ls.samples == 0 || beyond < ls.beyond99 {
		ls.beyond99 = beyond
	}
	ls.samples += n
	if ls.p50 == nil {
		ls.p50 = map[opKind][]float64{}
	}
	for kind, vs := range byKind {
		ls.p50[kind] = append(ls.p50[kind], median(vs))
	}
}

// liveSet is what the index must hold now: the preloaded rankings plus
// every acknowledged insert minus every acknowledged delete that
// reported it removed something. Each id is inserted at most once and
// deleted at most once, so following the responses is exact under any
// interleaving of the clients.
type liveSet struct {
	rs []*rankings.Ranking
	at map[int64]int
}

func newLiveSet(rs []*rankings.Ranking) *liveSet {
	l := &liveSet{rs: append([]*rankings.Ranking(nil), rs...), at: make(map[int64]int, len(rs))}
	for i, r := range rs {
		l.at[r.ID] = i
	}
	return l
}

func (l *liveSet) add(r *rankings.Ranking) {
	l.at[r.ID] = len(l.rs)
	l.rs = append(l.rs, r)
}

func (l *liveSet) remove(id int64) {
	i, ok := l.at[id]
	if !ok {
		return
	}
	last := l.rs[len(l.rs)-1]
	l.rs[i], l.at[last.ID] = last, i
	l.rs = l.rs[:len(l.rs)-1]
	delete(l.at, id)
}

// applyAcks folds the writes acknowledged since the last call into
// live, and counts the acknowledgements that cannot be right: an insert
// that did not insert one ranking, a delete of a present id that
// removed nothing, a delete of an absent id that removed something.
func applyAcks(live *liveSet, in *inputs, cs []*client) (failed int, notes []string) {
	for _, cl := range cs {
		for _, a := range cl.acked {
			op := in.writes[a.op]
			switch {
			case op.miss && a.changed != 0:
				failed++
				notes = append(notes, fmt.Sprintf("delete of absent id %d reported %d removed", op.id, a.changed))
			case !op.del && a.changed != 1:
				failed++
				notes = append(notes, fmt.Sprintf("insert of id %d reported %d inserted", op.id, a.changed))
			case op.del && !op.miss && a.changed != 1:
				failed++
				notes = append(notes, fmt.Sprintf("delete of present id %d reported %d removed", op.id, a.changed))
			case !op.del:
				live.add(in.byID[op.id])
			case a.changed == 1:
				live.remove(op.id)
			}
		}
		cl.acked = cl.acked[:0]
	}
	return failed, notes
}

// checkReads verifies the kept answers and forgets them. Given the
// rankings the index held while they were taken (it was not being
// written), each is compared with the benchmark's own brute-force scan
// of them; given nil, the index was being written, and every hit is
// re-verified: a known ranking, at the reported distance, within θ for a
// search.
func checkReads(cs []*client, in *inputs, held []*rankings.Ranking) (failed int, notes []string) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, cl := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, ck := range cl.checks {
				why := checkRead(ck, in, held)
				mu.Lock()
				if why != "" {
					failed++
					if len(notes) < 3 {
						notes = append(notes, fmt.Sprintf("read id=%d knn=%v: %s", ck.q.id, ck.q.knn, why))
					}
				}
				mu.Unlock()
			}
			cl.checks = cl.checks[:0]
		}()
	}
	wg.Wait()
	return failed, notes
}

// checkRead returns what is wrong with one kept answer, or "".
func checkRead(ck readCheck, in *inputs, held []*rankings.Ranking) string {
	maxDist := maxDistFor(searchTheta, rankK)
	q := in.byID[ck.q.id]
	if held != nil {
		if want := bruteForceRead(held, in.domain, q, ck.q.knn, maxDist); !equalHits(ck.hits, want) {
			return fmt.Sprintf("got %d hits, brute force %d", len(ck.hits), len(want))
		}
		return ""
	}
	for _, h := range ck.hits {
		r, ok := in.byID[h.ID]
		switch {
		case !ok:
			return fmt.Sprintf("hit %d is no ranking the benchmark wrote", h.ID)
		case footrule(q.Items, r.Items) != h.Dist:
			return fmt.Sprintf("hit %d at distance %d, truly %d", h.ID, h.Dist, footrule(q.Items, r.Items))
		case !ck.q.knn && h.Dist > maxDist:
			return fmt.Sprintf("hit %d at distance %d beyond θ", h.ID, h.Dist)
		}
	}
	return ""
}

// bruteForceRead answers a read by scanning data, whose items are all
// below domain: every ranking but q itself within maxDist, or the knnK nearest, ordered by (dist, id).
func bruteForceRead(data []*rankings.Ranking, domain int, q *rankings.Ranking, knn bool, maxDist int) []shard.Neighbor {
	// rank[x] is x's rank in q, or k when q lacks it.
	rank := make([]int, domain)
	k := len(q.Items)
	for x := range rank {
		rank[x] = k
	}
	for i, x := range q.Items {
		rank[x] = i
	}
	worse := func(a, b shard.Neighbor) bool {
		return a.Dist > b.Dist || (a.Dist == b.Dist && a.ID > b.ID)
	}
	var out []shard.Neighbor
	for _, r := range data {
		if r.ID == q.ID {
			continue
		}
		// Start from "r shares nothing with q" and correct per shared item.
		d := k * (k + 1)
		for j, y := range r.Items {
			if i := rank[y]; i < k {
				d -= (k - i) + (k - j)
				if i > j {
					d += i - j
				} else {
					d += j - i
				}
			}
		}
		h := shard.Neighbor{ID: r.ID, Dist: d}
		switch {
		case !knn:
			if d <= maxDist {
				out = append(out, h)
			}
		case len(out) < knnK:
			out = append(out, h)
		default: // replace the worst kept neighbour when h beats it
			w := 0
			for i := range out {
				if worse(out[i], out[w]) {
					w = i
				}
			}
			if worse(out[w], h) {
				out[w] = h
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return worse(out[j], out[i]) })
	return out
}

func equalHits(a, b []shard.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
