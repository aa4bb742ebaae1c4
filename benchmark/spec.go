package main

// A workload is one dataset and one topology taken through the whole
// system: its rankings are joined by the four algorithms, served to
// closed-loop readers, written to through the log, crashed and
// recovered. Every workload reports every end-to-end metric (the
// driver's contract: "with --trace 0 the metrics are every end_to_end
// metric"), so the workloads differ in the data, in the traffic, and in
// which phase gets most of the measured time, not in which phases run.
type workload struct {
	name string
	why  string

	data dataSpec
	// The join takes the first joinN rankings of the data (0: all of
	// them) at theta.
	joinN int
	theta float64
	// distributed runs CL-P as Cluster.DistributedJoin over the fleet.
	distributed bool

	// hot draws the ids read Zipf(1.1) from 256, so 512 distinct
	// requests (the query cache holds 1024); otherwise ids come from a
	// permutation, so a request never repeats within the cache's reach.
	hot bool
	// peers > 1 boots a loopback cluster and sends every request
	// through peer 0.
	peers int
	// mixed has half the clients write while the other half read, in one
	// window per round, with one SnapshotAll two thirds of the way through
	// the run; otherwise each round has a read window and then a write
	// window, every client doing the same.
	mixed bool

	// Shares of -seconds given to the joins, the reads and the writes
	// (mixed: read+write is one window).
	joinShare, readShare, writeShare float64
}

// dataSpec is a workload's dataset: n rankings drawn Zipf with
// near-duplicates (shape set), or n/5 uniform seed rankings over
// clusteredDomain items with 4 gentle variants each (shape nil; the
// shape of cmd/bench's serving data).
type dataSpec struct {
	shape *joinShape
	n     int
}

const (
	rankK           = 10   // ranking length everywhere
	searchTheta     = 0.25 // /v1/search threshold
	knnK            = 10   // /v1/knn k
	variants        = 4    // near-duplicates per seed in clustered data
	clusteredDomain = 30 * rankK
	queryCount      = 1 << 16
	writeCount      = 1 << 15
	hotIDs          = 256
	hotSkew         = 1.1
)

var workloads = []workload{
	{
		name: "join_dense",
		why:  "ORKU-like join, long posting lists and real clusters: candidates, filters, verification and CL-P repartitioning do the work",
		data: dataSpec{&orkuLike, 6000}, theta: 0.3, peers: 1,
		joinShare: 0.50, readShare: 0.35, writeShare: 0.10,
	},
	{
		name: "join_sparse",
		why:  "DBLP-like join at theta 0.1, a handful of candidates per ranking: ordering, shuffle and dedup dominate, the kernel idles, auto-delta CL-P is pathological",
		data: dataSpec{&dblpLike, 5500}, theta: 0.1, peers: 1,
		joinShare: 0.50, readShare: 0.35, writeShare: 0.10,
	},
	{
		name: "serve_cold",
		why:  "50000 rankings, every read a cache miss: the shard sweep is most of each round trip",
		data: dataSpec{nil, 50000}, joinN: 3500, theta: 0.3, peers: 1,
		joinShare: 0.30, readShare: 0.55, writeShare: 0.10,
	},
	{
		name: "serve_hot",
		why:  "2000 rankings, reads Zipf-repeated over 256 ids, all inside the cache: HTTP, JSON, cache and batcher dominate, the shard idles",
		data: dataSpec{nil, 2000}, theta: 0.3, hot: true, peers: 1,
		joinShare: 0.30, readShare: 0.55, writeShare: 0.10,
	},
	{
		name: "durable_churn",
		why:  "10000 rankings, reads beside fsynced writes with a snapshot mid-run: the only workload where WAL work and cache invalidation meet the read path",
		data: dataSpec{nil, 10000}, joinN: 3000, theta: 0.3, peers: 1, mixed: true,
		joinShare: 0.30, readShare: 0.35, writeShare: 0.30,
	},
	{
		name: "cluster3",
		why:  "3 loopback peers, every request scattered through peer 0 and CL-P joined over the wire: fan-out, slowest peer, merge and wire shuffle do the work",
		data: dataSpec{nil, 6000}, joinN: 3000, theta: 0.3, distributed: true, peers: 3,
		joinShare: 0.35, readShare: 0.50, writeShare: 0.10,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef mirrors one BENCHMARK.json metric entry; bound is set for
// end-to-end metrics only.
type metricDef struct {
	name   string
	unit   string
	higher bool
	bound  float64
}

// endToEnd is what a user of the system sees; bench_test.go holds
// BENCHMARK.json to this list.
var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"join_cl_s", "s", false, 0.25},
	{"join_clp_s", "s", false, 0.25},
	{"join_vj_s", "s", false, 0.25},
	{"join_vjnl_s", "s", false, 0.25},
	{"read_qps", "1/s", true, 0.25},
	{"knn_p50_ms", "ms", false, 0.25},
	{"write_qps", "1/s", true, 0.25},
	{"write_ack_p50_ms", "ms", false, 0.15},
	{"peak_rss_mb", "MB", false, 0.2},
}
