package main

// The benchmark's declarations: workloads, end-to-end metrics with their
// regression bounds, and per-layer metrics with the end-to-end metric and
// workload each is expected to move. BENCHMARK.json at the repo root is the
// driver-facing copy of these tables; TestBenchmarkJSONMatchesSpec keeps the
// two identical.

type workloadSpec struct {
	Name string
	Why  string
	// Clients is the closed-loop client count (capped at NumCPU at run time).
	Clients int
}

const (
	// defaultObjects is the survey size every workload's archive is built
	// from unless -objects says otherwise.
	defaultObjects = 50000
	// surveyChunks is the number of FITS chunk files (nights) the survey is
	// split into.
	surveyChunks = 8
)

type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change counts as a regression (0 for per-layer).
	Bound float64
	// Moves names the end-to-end metric and workload a per-layer metric is
	// predicted to move ("metric@workload"); empty for end-to-end metrics.
	Moves string
}

const (
	wInteractive = "interactive"
	wSweep       = "sweep"
	wExport      = "export"
	wMining      = "mining"
	wIngest      = "ingest"
)

var workloads = []workloadSpec{
	{wInteractive, "index-pruned short queries: parse, plan, HTM cover, zone prune and per-request HTTP cost dominate, scan and serialize almost nothing", 2},
	{wSweep, "aggregates and top-N over whole tables: COLBLK decode, filter kernels, morsel dispatch and aggregate combine dominate; one client so the pool owns both cores", 1},
	{wExport, "bulk extraction in csv, ndjson and json plus job rows: materialization, the gather stream and the format writers dominate, the scan is a small share", 2},
	{wMining, "NEIGHBORS self-join and photoobj-specobj equi-join: join build and probe dominate, the only place a join or partitioning change shows", 1},
	{wIngest, "FITS chunks to a flushed, reopened, answering archive with no queries running: the write side of store, colblk and load that the others only read", 1},
}

// The bounds are what this sandbox's run-to-run spread allows, not what one
// would like: each is at least three times the widest interquartile spread
// any workload showed for the metric over ten seeds (README, Steadiness).
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "op_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ttfb_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "result_mb_per_s", Unit: "MB/s", Better: "higher", Bound: 0.20},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "stored_bytes_per_user_byte", Unit: "ratio", Better: "lower", Bound: 0.01},
}

// Request templates, one latency class each: class.<template>.p50_ms.
var templates = map[string][]string{
	wInteractive: {"cone", "rect", "bright", "circle_top", "circle_count"},
	wSweep:       {"count_color", "avg_r", "max_u", "top_r"},
	wExport:      {"csv", "ndjson", "json", "jobrows"},
	wMining:      {"neighbors", "specjoin"},
	wIngest:      {"cycle"},
}

var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	m := []metricSpec{
		{Name: "query.parse_us", Unit: "us", Better: "lower", Moves: "op_p50_ms@interactive"},
		{Name: "query.prepare_us", Unit: "us", Better: "lower", Moves: "op_p50_ms@interactive"},
		{Name: "region.cover_us", Unit: "us", Better: "lower", Moves: "op_p50_ms@interactive"},
		{Name: "region.cover_ranges", Unit: "count", Better: "lower", Moves: "op_p50_ms@interactive"},
		{Name: "qe.plan_us", Unit: "us", Better: "lower", Moves: "op_p50_ms@interactive"},
		{Name: "qe.exec_us", Unit: "us", Better: "lower", Moves: "ops_per_s@sweep"},
		{Name: "qe.first_batch_us", Unit: "us", Better: "lower", Moves: "ttfb_p50_ms@export"},
		{Name: "qe.scan_ns_per_row", Unit: "ns", Better: "lower", Moves: "ops_per_s@sweep"},
		{Name: "qe.join_input_scan_frac", Unit: "ratio", Better: "lower", Moves: "ops_per_s@mining"},
		{Name: "qe.rows_examined_per_result", Unit: "ratio", Better: "lower", Moves: "ops_per_s@sweep"},
		{Name: "qe.containers", Unit: "count", Better: "lower", Moves: "op_p50_ms@interactive"},
		{Name: "qe.zone_pruned", Unit: "count", Better: "higher", Moves: "op_p50_ms@interactive"},
		{Name: "qe.blocks_skipped", Unit: "count", Better: "higher", Moves: "ops_per_s@sweep"},
		{Name: "qe.bytes_decoded", Unit: "B", Better: "lower", Moves: "ops_per_s@sweep"},
		{Name: "qe.morsels", Unit: "count", Better: "lower", Moves: "ops_per_s@sweep"},
		{Name: "qe.steals", Unit: "count", Better: "lower", Moves: "ops_per_s@sweep"},
		{Name: "qe.pool_workers_peak", Unit: "count", Better: "lower", Moves: "peak_rss_mb@export"},
		{Name: "store.scan_raw_ns_per_row", Unit: "ns", Better: "lower", Moves: "ops_per_s@sweep"},
		{Name: "store.zone_check_ns", Unit: "ns", Better: "lower", Moves: "ops_per_s@sweep"},
		{Name: "store.bulkload_rows_per_s", Unit: "1/s", Better: "higher", Moves: "ops_per_s@ingest"},
		{Name: "store.sort_s", Unit: "s", Better: "lower", Moves: "ops_per_s@ingest"},
		{Name: "store.flush_s", Unit: "s", Better: "lower", Moves: "ops_per_s@ingest"},
		{Name: "store.open_s", Unit: "s", Better: "lower", Moves: "ttfb_p50_ms@ingest"},
		{Name: "store.build_zones_s", Unit: "s", Better: "lower", Moves: "ops_per_s@ingest"},
		{Name: "store.build_colblk_s", Unit: "s", Better: "lower", Moves: "ops_per_s@ingest"},
		{Name: "colblk.decode_ns_per_value", Unit: "ns", Better: "lower", Moves: "ops_per_s@sweep"},
		{Name: "colblk.encode_ns_per_row", Unit: "ns", Better: "lower", Moves: "ops_per_s@ingest"},
		{Name: "colblk.encoded_per_raw_byte", Unit: "ratio", Better: "lower", Moves: "stored_bytes_per_user_byte@ingest"},
		{Name: "hashm.index_build_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s@mining"},
		{Name: "hashm.probe_ns_per_item", Unit: "ns", Better: "lower", Moves: "ops_per_s@mining"},
		{Name: "hashm.pairs_per_probe", Unit: "ratio", Better: "lower", Moves: "ops_per_s@mining"},
		{Name: "archive.write_csv_ns_per_row", Unit: "ns", Better: "lower", Moves: "result_mb_per_s@export"},
		{Name: "archive.write_ndjson_ns_per_row", Unit: "ns", Better: "lower", Moves: "result_mb_per_s@export"},
		{Name: "archive.write_json_ns_per_row", Unit: "ns", Better: "lower", Moves: "result_mb_per_s@export"},
		{Name: "archive.handler_us", Unit: "us", Better: "lower", Moves: "op_p50_ms@interactive"},
		{Name: "archive.http_overhead_us", Unit: "us", Better: "lower", Moves: "op_p50_ms@interactive"},
		{Name: "skygen.generate_rows_per_s", Unit: "1/s", Better: "higher", Moves: "setup_s@all"},
		{Name: "load.write_fits_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "setup_s@all"},
		{Name: "load.read_fits_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "ops_per_s@ingest"},
		{Name: "load.chunk_rows_per_s", Unit: "1/s", Better: "higher", Moves: "ops_per_s@ingest"},
		{Name: "ingest.rows_per_s", Unit: "1/s", Better: "higher", Moves: "ops_per_s@ingest"},
		{Name: "runtime.alloc_bytes_per_op", Unit: "B", Better: "lower", Moves: "op_p95_ms@all"},
		{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Moves: "op_p95_ms@all"},
		{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower", Moves: "op_p95_ms@all"},
		// Self-time shares of the traced op time, one per layer group; the
		// workload built for a layer shows it high, some other shows it low.
		{Name: "trace.share.parse_plan", Unit: "ratio", Better: "lower", Moves: "op_p50_ms@interactive"},
		{Name: "trace.share.qe_exec", Unit: "ratio", Better: "lower", Moves: "ops_per_s@sweep"},
		{Name: "trace.share.qe_join", Unit: "ratio", Better: "lower", Moves: "ops_per_s@mining"},
		{Name: "trace.share.archive_writer", Unit: "ratio", Better: "lower", Moves: "result_mb_per_s@export"},
		{Name: "trace.share.store_load", Unit: "ratio", Better: "lower", Moves: "ops_per_s@ingest"},
		{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower", Moves: "none"},
	}
	for _, w := range workloads {
		for _, t := range templates[w.Name] {
			m = append(m, metricSpec{
				Name: "class." + w.Name + "." + t + ".p50_ms", Unit: "ms", Better: "lower",
				Moves: "op_p50_ms@" + w.Name,
			})
		}
	}
	return m
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
