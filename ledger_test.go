package rankjoin_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"rankjoin"
)

// ledgerCell is one driver run of the ledger grid.
type ledgerCell struct {
	name  string
	alg   rankjoin.Algorithm
	delta int
	rs    bool // R-S join of the dataset's two halves
}

var ledgerCells = []ledgerCell{
	{"VJ", rankjoin.AlgVJ, 0, false},
	{"VJ/d8", rankjoin.AlgVJ, 8, false},
	{"VJ-NL", rankjoin.AlgVJNL, 0, false},
	{"CL", rankjoin.AlgCL, 0, false},
	{"CL-P/auto", rankjoin.AlgCLP, 0, false},
	{"CL-P/d8", rankjoin.AlgCLP, 8, false},
	{"FS-Join", rankjoin.AlgFSJoin, 0, false},
	{"RS", rankjoin.AlgVJNL, 0, true},
	{"RS/d8", rankjoin.AlgVJNL, 8, true},
}

// ledgerShapes are the two engine shapes every cell runs at, as
// Workers/DefaultPartitions.
var ledgerShapes = [2][2]int{{1, 3}, {4, 16}}

// ledgerGolden pins, per dataset, θ and driver: the pair count and a
// digest of the sorted pairs, the eight filter-ledger fields, CL's δ and
// phase cardinalities (cluster pairs, clusters, singletons, centroid
// pairs), and Engine.Tasks at each shape. ShuffleRecords is not pinned:
// the shuffle hash is seeded per process, so map-side combining moves it
// by a few records from one process to the next.
var ledgerGolden = []string{
	"DBLP θ=0.1 VJ pairs=44 digest=bd538f9035eb626a ledger=4897/954/3686/41/0/0/216/109 tasks=24/128",
	"DBLP θ=0.1 VJ/d8 pairs=44 digest=bd538f9035eb626a ledger=4897/796/3844/41/0/0/216/109 tasks=78/416",
	"DBLP θ=0.1 VJ-NL pairs=44 digest=bd538f9035eb626a ledger=4897/0/4627/54/0/0/216/109 tasks=24/128",
	"DBLP θ=0.1 CL pairs=44 digest=bd538f9035eb626a ledger=10761/1509/8803/132/3/0/314/147 δ=0 cl=7/7/587/39 tasks=126/672",
	"DBLP θ=0.1 CL-P/auto pairs=44 digest=bd538f9035eb626a ledger=10761/1509/8803/132/3/0/314/147 δ=217 cl=7/7/587/39 tasks=180/960",
	"DBLP θ=0.1 CL-P/d8 pairs=44 digest=bd538f9035eb626a ledger=10761/1509/8803/132/3/0/314/147 δ=8 cl=7/7/587/39 tasks=180/960",
	"DBLP θ=0.1 FS-Join pairs=44 digest=bd538f9035eb626a ledger=136362/0/136225/32/0/0/105/44 tasks=18/96",
	"DBLP θ=0.1 RS pairs=18 digest=aa699cf1b9f19dd9 ledger=2388/0/2271/21/0/0/96/46 tasks=24/128",
	"DBLP θ=0.1 RS/d8 pairs=18 digest=aa699cf1b9f19dd9 ledger=2388/0/2271/21/0/0/96/46 tasks=78/416",
	"DBLP θ=0.3 VJ pairs=191 digest=3d18841aea90b316 ledger=23293/0/21461/0/0/0/1832/782 tasks=24/128",
	"DBLP θ=0.3 VJ/d8 pairs=191 digest=3d18841aea90b316 ledger=23293/0/21461/0/0/0/1832/782 tasks=78/416",
	"DBLP θ=0.3 VJ-NL pairs=191 digest=3d18841aea90b316 ledger=23293/0/21461/0/0/0/1832/782 tasks=24/128",
	"DBLP θ=0.3 CL pairs=191 digest=3d18841aea90b316 ledger=25028/1509/21694/50/0/0/1775/733 δ=0 cl=7/7/587/175 tasks=126/672",
	"DBLP θ=0.3 CL-P/auto pairs=191 digest=3d18841aea90b316 ledger=25028/1509/21694/50/0/0/1775/733 δ=427 cl=7/7/587/175 tasks=180/960",
	"DBLP θ=0.3 CL-P/d8 pairs=191 digest=3d18841aea90b316 ledger=25028/1509/21694/50/0/0/1775/733 δ=8 cl=7/7/587/175 tasks=180/960",
	"DBLP θ=0.3 FS-Join pairs=191 digest=3d18841aea90b316 ledger=136362/0/135111/0/0/0/1251/191 tasks=18/96",
	"DBLP θ=0.3 RS pairs=71 digest=90564c0e5b28b2ba ledger=11521/0/10715/0/0/0/806/306 tasks=24/128",
	"DBLP θ=0.3 RS/d8 pairs=71 digest=90564c0e5b28b2ba ledger=11521/0/10715/0/0/0/806/306 tasks=78/416",
	"DBLP θ=0.6 VJ pairs=883 digest=7fd507a8c13b89b5 ledger=62693/0/30830/0/0/0/31863/2804 tasks=24/128",
	"DBLP θ=0.6 VJ/d8 pairs=883 digest=7fd507a8c13b89b5 ledger=62693/0/30830/0/0/0/31863/2804 tasks=78/416",
	"DBLP θ=0.6 VJ-NL pairs=883 digest=7fd507a8c13b89b5 ledger=62693/0/30830/0/0/0/31863/2804 tasks=24/128",
	"DBLP θ=0.6 CL pairs=883 digest=7fd507a8c13b89b5 ledger=64024/1509/31121/50/3/0/31341/2694 δ=0 cl=7/7/587/853 tasks=126/672",
	"DBLP θ=0.6 CL-P/auto pairs=883 digest=7fd507a8c13b89b5 ledger=64024/1509/31121/50/3/0/31341/2694 δ=568 cl=7/7/587/853 tasks=180/960",
	"DBLP θ=0.6 CL-P/d8 pairs=883 digest=7fd507a8c13b89b5 ledger=64024/1509/31121/50/3/0/31341/2694 δ=8 cl=7/7/587/853 tasks=180/960",
	"DBLP θ=0.6 FS-Join pairs=883 digest=7fd507a8c13b89b5 ledger=136362/0/104400/0/0/0/31962/883 tasks=18/96",
	"DBLP θ=0.6 RS pairs=403 digest=ffb3f498190dcbd0 ledger=31224/0/15451/0/0/0/15773/1223 tasks=24/128",
	"DBLP θ=0.6 RS/d8 pairs=403 digest=ffb3f498190dcbd0 ledger=31224/0/15451/0/0/0/15773/1223 tasks=78/416",
	"ORKU θ=0.1 VJ pairs=51 digest=8ac150b748bfbf0f ledger=8544/1480/6767/50/0/0/247/121 tasks=24/128",
	"ORKU θ=0.1 VJ/d8 pairs=51 digest=8ac150b748bfbf0f ledger=8544/862/7381/54/0/0/247/121 tasks=78/416",
	"ORKU θ=0.1 VJ-NL pairs=51 digest=8ac150b748bfbf0f ledger=8544/0/8232/65/0/0/247/121 tasks=24/128",
	"ORKU θ=0.1 CL pairs=51 digest=8ac150b748bfbf0f ledger=19583/2497/16581/139/1/0/365/147 δ=0 cl=9/9/582/43 tasks=126/672",
	"ORKU θ=0.1 CL-P/auto pairs=51 digest=8ac150b748bfbf0f ledger=19583/2497/16581/139/1/0/365/147 δ=343 cl=9/9/582/43 tasks=180/960",
	"ORKU θ=0.1 CL-P/d8 pairs=51 digest=8ac150b748bfbf0f ledger=19583/2497/16581/139/1/0/365/147 δ=8 cl=9/9/582/43 tasks=180/960",
	"ORKU θ=0.1 FS-Join pairs=51 digest=8ac150b748bfbf0f ledger=173796/0/173632/38/0/0/126/51 tasks=18/96",
	"ORKU θ=0.1 RS pairs=13 digest=cd8b8daf86efa88b ledger=4185/0/4082/32/0/0/71/30 tasks=24/128",
	"ORKU θ=0.1 RS/d8 pairs=13 digest=cd8b8daf86efa88b ledger=4185/0/4082/32/0/0/71/30 tasks=78/416",
	"ORKU θ=0.3 VJ pairs=261 digest=870fe6096754ab3a ledger=50140/0/40365/0/0/0/9775/1014 tasks=24/128",
	"ORKU θ=0.3 VJ/d8 pairs=261 digest=870fe6096754ab3a ledger=50140/0/40365/0/0/0/9775/1014 tasks=78/416",
	"ORKU θ=0.3 VJ-NL pairs=261 digest=870fe6096754ab3a ledger=50140/0/40365/0/0/0/9775/1014 tasks=24/128",
	"ORKU θ=0.3 CL pairs=261 digest=870fe6096754ab3a ledger=52376/2497/40357/49/0/0/9473/935 δ=0 cl=9/9/582/230 tasks=126/672",
	"ORKU θ=0.3 CL-P/auto pairs=261 digest=870fe6096754ab3a ledger=52376/2497/40357/49/0/0/9473/935 δ=682 cl=9/9/582/230 tasks=180/960",
	"ORKU θ=0.3 CL-P/d8 pairs=261 digest=870fe6096754ab3a ledger=52376/2497/40357/49/0/0/9473/935 δ=8 cl=9/9/582/230 tasks=180/960",
	"ORKU θ=0.3 FS-Join pairs=261 digest=870fe6096754ab3a ledger=173796/0/166434/0/0/0/7362/261 tasks=18/96",
	"ORKU θ=0.3 RS pairs=102 digest=570aa78aaf7706a3 ledger=24863/0/20120/0/0/0/4743/372 tasks=24/128",
	"ORKU θ=0.3 RS/d8 pairs=102 digest=570aa78aaf7706a3 ledger=24863/0/20120/0/0/0/4743/372 tasks=78/416",
	"ORKU θ=0.6 VJ pairs=7032 digest=118de942bef5b7ad ledger=151507/0/28671/0/0/0/122836/17232 tasks=24/128",
	"ORKU θ=0.6 VJ/d8 pairs=7032 digest=118de942bef5b7ad ledger=151507/0/28671/0/0/0/122836/17232 tasks=78/416",
	"ORKU θ=0.6 VJ-NL pairs=7032 digest=118de942bef5b7ad ledger=151507/0/28671/0/0/0/122836/17232 tasks=24/128",
	"ORKU θ=0.6 CL pairs=7032 digest=118de942bef5b7ad ledger=152085/2497/29402/49/3/0/120134/17002 δ=0 cl=9/9/582/6916 tasks=126/672",
	"ORKU θ=0.6 CL-P/auto pairs=7032 digest=118de942bef5b7ad ledger=152085/2497/29402/49/3/0/120134/17002 δ=906 cl=9/9/582/6916 tasks=180/960",
	"ORKU θ=0.6 CL-P/d8 pairs=7032 digest=118de942bef5b7ad ledger=152085/2497/29402/49/3/0/120134/17002 δ=8 cl=9/9/582/6916 tasks=180/960",
	"ORKU θ=0.6 FS-Join pairs=7032 digest=118de942bef5b7ad ledger=173796/0/87481/0/0/0/86315/7032 tasks=18/96",
	"ORKU θ=0.6 RS pairs=3464 digest=06d91d2d70d8a2a6 ledger=75815/0/14328/0/0/0/61487/8377 tasks=24/128",
	"ORKU θ=0.6 RS/d8 pairs=3464 digest=06d91d2d70d8a2a6 ledger=75815/0/14328/0/0/0/61487/8377 tasks=78/416",
}

// TestDriverLedgers runs every prefix-style join driver over a small
// DBLP-like and ORKU-like grid and pins what each one produced and how
// its filter ledger accounted for it. The drivers share one grouping
// and ledger path, so a change there that keeps the answers but moves
// the candidates (say, a sub-partition pair joined in both orders)
// shows here even though every oracle test still passes. Each cell
// must also agree across the two engine shapes: pairs and ledgers are
// properties of the input, not of the parallelism.
func TestDriverLedgers(t *testing.T) {
	var got []string
	for _, prof := range []rankjoin.Profile{rankjoin.DBLPLike, rankjoin.ORKULike} {
		rs, err := rankjoin.Generate(prof.Config(600, 10, 1))
		if err != nil {
			t.Fatal(err)
		}
		for _, theta := range []float64{0.1, 0.3, 0.6} {
			for _, c := range ledgerCells {
				var line string
				var tasks [2]int64
				for i, sh := range ledgerShapes {
					e := rankjoin.NewEngine(rankjoin.EngineConfig{Workers: sh[0], DefaultPartitions: sh[1]})
					opts := rankjoin.Options{Algorithm: c.alg, Theta: theta, Delta: c.delta, Stats: true}
					var res *rankjoin.Result
					if c.rs {
						res, err = e.JoinRS(rs[:len(rs)/2], rs[len(rs)/2:], opts)
					} else {
						res, err = e.Join(rs, opts)
					}
					e.Close()
					if err != nil {
						t.Fatalf("%s θ=%v %s: %v", prof.Name, theta, c.name, err)
					}
					l := ledgerLine(prof.Name, theta, c.name, res)
					if i > 0 && l != line {
						t.Errorf("shapes disagree:\n%v: %s\n%v: %s", ledgerShapes[0], line, sh, l)
					}
					line = l
					tasks[i] = res.Engine.Tasks
				}
				got = append(got, fmt.Sprintf("%s tasks=%d/%d", line, tasks[0], tasks[1]))
			}
		}
	}
	if len(got) != len(ledgerGolden) {
		t.Fatalf("%d cells, %d pinned; got:\n%s", len(got), len(ledgerGolden), joinLines(got))
	}
	for i := range got {
		if got[i] != ledgerGolden[i] {
			t.Errorf("cell %d:\n got  %s\n want %s", i, got[i], ledgerGolden[i])
		}
	}
}

func ledgerLine(prof string, theta float64, name string, res *rankjoin.Result) string {
	h := fnv.New64a()
	for _, p := range res.Pairs {
		fmt.Fprintf(h, "%d %d %d\n", p.A, p.B, p.Dist)
	}
	f := res.Filters
	line := fmt.Sprintf("%s θ=%v %s pairs=%d digest=%016x ledger=%d/%d/%d/%d/%d/%d/%d/%d",
		prof, theta, name, len(res.Pairs), h.Sum64(),
		f.Generated, f.PrunedPrefix, f.PrunedSignature, f.PrunedPosition,
		f.PrunedTriangle, f.AcceptedUnverified, f.Verified, f.Emitted)
	if cl := res.CL; cl != nil {
		line += fmt.Sprintf(" δ=%d cl=%d/%d/%d/%d", cl.Delta, cl.ClusterPairs, cl.Clusters, cl.Singletons, cl.CentroidPairs)
	}
	return line
}

func joinLines(ls []string) string {
	var s string
	for _, l := range ls {
		s += fmt.Sprintf("\t%q,\n", l)
	}
	return s
}
