package main

// The tables in this file are the program's half of BENCHMARK.json; the
// spec test requires the two to agree name for name.

// kind is one operation class of a workload mix.
type kind uint8

const (
	kPoint kind = iota
	kHop1
	kHop2
	kTri
	kVar2
	kHop2Rows
	kReadback
	kSet
	kCreate
	kDelete
	numKinds
)

var kindNames = [numKinds]string{"point", "hop1", "hop2", "tri", "var2", "hop2rows", "readback", "set", "create", "delete"}

func (k kind) String() string { return kindNames[k] }

func (k kind) write() bool { return k >= kSet }

// share is one entry of a mix, in parts per thousand.
type share struct {
	k kind
	n int
}

// workload describes one served traffic mix and the engine configuration
// it runs against.
type workload struct {
	name string
	why  string
	// nodes is the generated graph's size (gen.BA, 4 edges per node).
	nodes int
	// disk selects the disk-backed configuration with the given pool and
	// cache budget; otherwise the engine is in memory.
	disk       bool
	poolPages  int
	cacheBytes int64
	// binary negotiates the framed wire protocol instead of JSON.
	binary bool
	mix    []share
	// hot > 0 draws start nodes Zipf(1.1) from a seeded list of that many
	// nodes; 0 draws them uniformly from the whole graph.
	hot int
}

const (
	memNodes  = 20000
	diskNodes = 6000
	zipfS     = 1.1
)

var workloads = []workload{
	{
		name:  "point_mem",
		why:   "in memory, JSON, 70% indexed point lookups and 30% one-hop reads: the engine does about 10 us of a 70 us request, so HTTP, admission, parse and plan dominate; closed loop, 2 clients",
		nodes: memNodes,
		mix:   []share{{kPoint, 700}, {kHop1, 300}},
	},
	{
		name:   "traverse_mem",
		why:    "in memory, binary protocol, two-hop counts and streamed two-hop rows, triangles, variable-length paths: operators and adjacency are the largest layer, HTTP the second; closed loop, 2 clients",
		nodes:  memNodes,
		binary: true,
		mix:    []share{{kHop2, 400}, {kTri, 150}, {kVar2, 50}, {kHop2Rows, 400}},
	},
	{
		name:  "cold_disk",
		why:   "disk-backed, 512 KiB pool over a 5 MB page file, caches off, read-only, uniform start nodes: the working set exceeds the pool, so kvgraph decode, btree descent, pager misses and vfs reads dominate",
		nodes: diskNodes, disk: true, poolPages: 128,
		mix: []share{{kPoint, 500}, {kHop1, 300}, {kVar2, 180}, {kHop2, 20}},
	},
	{
		name:  "rw_disk",
		why:   "disk-backed, 32 MiB cache (everything fits, three cache tiers on), 90% Zipf reads over 512 hot nodes beside 10% writes, Flush after every 64th write: invalidation and write cost show here",
		nodes: diskNodes, disk: true, cacheBytes: 32 << 20, hot: 512,
		mix: []share{{kPoint, 650}, {kHop1, 120}, {kVar2, 80}, {kReadback, 50}, {kSet, 50}, {kCreate, 25}, {kDelete, 25}},
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

// metricDef is one reported metric.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen; per-layer metrics carry none.
	bound float64
	// exact marks a traced-pass count that repeats exactly for a seed, so
	// a later change may rest a claim on it.
	exact bool
	// e2e/on name the end-to-end metric and workload this per-layer metric
	// is expected to move; notOn names a workload where it must not.
	e2e, on, notOn string
}

// endToEnd lists what a caller of the served system sees. The four timings
// are in the seconds of the nominal host (hostref.go): the sandbox's speed
// wanders by a quarter for minutes at a time, and a bound on a timing as
// the host happened to run it would be a bound on the host. Two metrics the
// issue proposed are not here. fail_ratio is 0 at the seed, and a metric
// that is 0 cannot carry a relative bound: failures travel in the result
// line's attempted/failed/correct fields and as client.fail_ratio below.
// ttfb_p50_ms follows p50_ms to within a few microseconds on every
// workload, so it is the per-layer client.ttfb_p50_ms. The time bounds are
// three times the spreads seen over ten seeds on a restless host (see
// README.md, "Observed spreads"); mem_mb repeats to a thousandth.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "p95_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "mem_mb", unit: "MB", better: "lower", bound: 0.05},
}

var perLayer = []metricDef{
	// Staged spans of the traced pass.
	{name: "client.roundtrip_us_p50", unit: "us", better: "lower", e2e: "p50_ms", on: "point_mem"},
	{name: "server.handler_us_p50", unit: "us", better: "lower", e2e: "p50_ms", on: "point_mem"},
	{name: "engine.query_us_p50", unit: "us", better: "lower", e2e: "p50_ms", on: "traverse_mem"},
	{name: "net.self_us_p50", unit: "us", better: "lower", e2e: "p50_ms", on: "point_mem", notOn: "traverse_mem"},
	{name: "server.self_us_p50", unit: "us", better: "lower", e2e: "p50_ms", on: "point_mem", notOn: "cold_disk"},
	{name: "gql.parse_us_p50", unit: "us", better: "lower", e2e: "p50_ms", on: "point_mem", notOn: "traverse_mem"},
	{name: "plan.compile_us_p50", unit: "us", better: "lower", e2e: "p50_ms", on: "point_mem", notOn: "traverse_mem"},
	{name: "plan.compile_us_p95", unit: "us", better: "lower", e2e: "p95_ms", on: "rw_disk", notOn: "cold_disk"},
	{name: "plan.exec_us_p50", unit: "us", better: "lower", e2e: "p50_ms", on: "traverse_mem", notOn: "point_mem"},
	{name: "plan.exec_self_us_p50", unit: "us", better: "lower", e2e: "ops_per_s", on: "traverse_mem", notOn: "point_mem"},
	{name: "store.us_per_op", unit: "us", better: "lower", e2e: "p50_ms", on: "cold_disk", notOn: "point_mem"},
	{name: "store.calls_per_op", unit: "count", better: "lower", exact: true, e2e: "ops_per_s", on: "traverse_mem", notOn: "point_mem"},
	{name: "plan.rows_examined_per_row", unit: "ratio", better: "lower", exact: true, e2e: "ops_per_s", on: "traverse_mem", notOn: "point_mem"},
	{name: "wire.encode_us_p50", unit: "us", better: "lower", e2e: "p50_ms", on: "traverse_mem", notOn: "point_mem"},
	{name: "json.encode_us_p50", unit: "us", better: "lower", e2e: "p50_ms", on: "point_mem", notOn: "traverse_mem"},
	{name: "wire.decode_us_p50", unit: "us", better: "lower", e2e: "p50_ms", on: "traverse_mem", notOn: "point_mem"},
	{name: "wire.resp_bytes_per_op", unit: "B", better: "lower", e2e: "p50_ms", on: "traverse_mem", notOn: "cold_disk"},
	{name: "server.chunks_per_op", unit: "count", better: "lower", exact: true, e2e: "p50_ms", on: "traverse_mem", notOn: "point_mem"},
	{name: "engine.stage_gap_ratio", unit: "ratio", better: "lower", e2e: "p50_ms", on: "traverse_mem"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower", e2e: "p50_ms", on: "point_mem"},
	{name: "trace.store_overhead_ratio", unit: "ratio", better: "lower", e2e: "p50_ms", on: "traverse_mem"},
	// Storage, from counters differenced around the traced pass.
	{name: "kvgraph.node_reads_per_op", unit: "count", better: "lower", exact: true, e2e: "p50_ms", on: "cold_disk", notOn: "point_mem"},
	{name: "kvgraph.edge_reads_per_op", unit: "count", better: "lower", exact: true, e2e: "p50_ms", on: "cold_disk", notOn: "point_mem"},
	{name: "kvgraph.adj_scans_per_op", unit: "count", better: "lower", exact: true, e2e: "p50_ms", on: "cold_disk", notOn: "traverse_mem"},
	{name: "pager.page_reads_per_op", unit: "count", better: "lower", exact: true, e2e: "p50_ms", on: "cold_disk", notOn: "point_mem"},
	{name: "pager.page_writes_per_op", unit: "count", better: "lower", exact: true, e2e: "ops_per_s", on: "rw_disk", notOn: "cold_disk"},
	{name: "pager.syncs", unit: "count", better: "lower", exact: true, e2e: "p95_ms", on: "rw_disk", notOn: "cold_disk"},
	{name: "cache.page.hit_ratio", unit: "ratio", better: "higher", exact: true, e2e: "ops_per_s", on: "cold_disk", notOn: "traverse_mem"},
	{name: "cache.page.evictions_per_op", unit: "count", better: "lower", exact: true, e2e: "ops_per_s", on: "cold_disk", notOn: "rw_disk"},
	{name: "cache.adjacency.hit_ratio", unit: "ratio", better: "higher", exact: true, e2e: "p50_ms", on: "rw_disk", notOn: "cold_disk"},
	{name: "cache.results.hit_ratio", unit: "ratio", better: "higher", exact: true, e2e: "p50_ms", on: "rw_disk", notOn: "cold_disk"},
	{name: "vfs.reads_per_op", unit: "count", better: "lower", exact: true, e2e: "p50_ms", on: "cold_disk", notOn: "point_mem"},
	{name: "vfs.read_bytes_per_op", unit: "B", better: "lower", exact: true, e2e: "p50_ms", on: "cold_disk", notOn: "point_mem"},
	{name: "vfs.read_us_per_op", unit: "us", better: "lower", e2e: "p50_ms", on: "cold_disk", notOn: "point_mem"},
	{name: "vfs.writes_per_op", unit: "count", better: "lower", exact: true, e2e: "ops_per_s", on: "rw_disk", notOn: "cold_disk"},
	{name: "vfs.syncs", unit: "count", better: "lower", exact: true, e2e: "p95_ms", on: "rw_disk", notOn: "cold_disk"},
	{name: "vfs.sync_ms_p50", unit: "ms", better: "lower", e2e: "p95_ms", on: "rw_disk", notOn: "cold_disk"},
	{name: "vfs.write_bytes_per_user_byte", unit: "ratio", better: "lower", exact: true, e2e: "ops_per_s", on: "rw_disk", notOn: "cold_disk"},
	{name: "pager.file_bytes_per_user_byte", unit: "ratio", better: "lower", exact: true, e2e: "setup_s", on: "cold_disk", notOn: "point_mem"},
	{name: "pager.flush_ms_p50", unit: "ms", better: "lower", e2e: "p95_ms", on: "rw_disk", notOn: "cold_disk"},
	{name: "adj.pin_us_p50", unit: "us", better: "lower", e2e: "p95_ms", on: "rw_disk", notOn: "point_mem"},
	{name: "adj.pin_us_p95", unit: "us", better: "lower", e2e: "p95_ms", on: "rw_disk", notOn: "cold_disk"},
	// Server counters.
	{name: "server.shed_ratio", unit: "ratio", better: "lower", e2e: "ops_per_s", on: "point_mem"},
	{name: "server.timeouts", unit: "count", better: "lower", e2e: "ops_per_s", on: "point_mem"},
	// Set-up.
	{name: "gen.load_elems_per_s", unit: "1/s", better: "higher", e2e: "setup_s", on: "cold_disk", notOn: "point_mem"},
	{name: "engine.index_build_ms", unit: "ms", better: "lower", e2e: "setup_s", on: "point_mem"},
	{name: "plan.scan_ms", unit: "ms", better: "lower", e2e: "setup_s", on: "cold_disk"},
	// Client and runtime, from the untraced window of the same run.
	{name: "host.speed", unit: "ratio", better: "higher", e2e: "ops_per_s", on: "point_mem"},
	{name: "client.ops_per_s", unit: "1/s", better: "higher", e2e: "ops_per_s", on: "point_mem"},
	{name: "client.p50_ms", unit: "ms", better: "lower", e2e: "p50_ms", on: "point_mem"},
	{name: "client.p95_ms", unit: "ms", better: "lower", e2e: "p95_ms", on: "rw_disk"},
	{name: "client.p99_ms", unit: "ms", better: "lower", e2e: "p95_ms", on: "rw_disk"},
	{name: "client.ttfb_p50_ms", unit: "ms", better: "lower", e2e: "p50_ms", on: "traverse_mem"},
	{name: "client.p50_ms.point", unit: "ms", better: "lower", e2e: "p50_ms", on: "point_mem", notOn: "traverse_mem"},
	{name: "client.p50_ms.hop1", unit: "ms", better: "lower", e2e: "p50_ms", on: "cold_disk", notOn: "traverse_mem"},
	{name: "client.p50_ms.hop2", unit: "ms", better: "lower", e2e: "p50_ms", on: "traverse_mem", notOn: "point_mem"},
	{name: "client.p50_ms.tri", unit: "ms", better: "lower", e2e: "p50_ms", on: "traverse_mem", notOn: "point_mem"},
	{name: "client.p50_ms.var2", unit: "ms", better: "lower", e2e: "p50_ms", on: "traverse_mem", notOn: "point_mem"},
	{name: "client.p50_ms.hop2rows", unit: "ms", better: "lower", e2e: "p95_ms", on: "traverse_mem", notOn: "point_mem"},
	{name: "client.p50_ms.readback", unit: "ms", better: "lower", e2e: "p50_ms", on: "rw_disk", notOn: "cold_disk"},
	{name: "client.p50_ms.set", unit: "ms", better: "lower", e2e: "p95_ms", on: "rw_disk", notOn: "cold_disk"},
	{name: "client.p50_ms.create", unit: "ms", better: "lower", e2e: "p95_ms", on: "rw_disk", notOn: "cold_disk"},
	{name: "client.p50_ms.delete", unit: "ms", better: "lower", e2e: "p95_ms", on: "rw_disk", notOn: "cold_disk"},
	{name: "client.samples", unit: "count", better: "higher", e2e: "ops_per_s", on: "point_mem"},
	{name: "client.fail_ratio", unit: "ratio", better: "lower", e2e: "ops_per_s", on: "point_mem"},
	{name: "go.alloc_bytes_per_op", unit: "B", better: "lower", e2e: "ops_per_s", on: "traverse_mem", notOn: "cold_disk"},
	{name: "go.gc_pause_ms", unit: "ms", better: "lower", e2e: "p95_ms", on: "traverse_mem", notOn: "cold_disk"},
}

// Fixed sizes of a run. They are constants, not flags: two runs compare
// only if they agree on all of them.
const (
	numClients = 2
	flushEvery = 64 // acknowledged writes between Flush calls
)

// runSeconds is the measured window of one run: BENCHMARK.json's
// run_seconds, and the default of -seconds.
const runSeconds = 15

// sizes are the counts that scale a run's cost.
type sizes struct {
	nodes  int // generated graph
	rounds int // set-ups per untraced run; setup_s is their median
	warmup int // operations of the warm-up pass
	traced int // operations per stage of the traced pass
}

// fullSizes are the sizes every reported number is measured at. A disk
// set-up takes twenty times a memory one, and the driver's 92 runs share
// one time cap (README.md, "Time budget"), so it is repeated less.
func fullSizes(w *workload) sizes {
	sz := sizes{nodes: w.nodes, rounds: 5, warmup: 200, traced: 400}
	if w.disk {
		sz.rounds = 2
	}
	return sz
}

// quickSizes keep the tests fast; nothing measured at them is reported.
var quickSizes = sizes{nodes: 300, rounds: 1, warmup: 40, traced: 40}
