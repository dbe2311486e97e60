package main

// metricUnits lists every metric this benchmark can report, with its
// unit; BENCHMARK.json must list exactly these (metrics_test.go).
var metricUnits = map[string]string{
	// End to end, every workload.
	"setup_s":     "s",
	"rows_per_s":  "rows/s",
	"peak_rss_mb": "MiB",

	// Per layer, from the traced run.
	"csvio.rows":                 "count",
	"csvio.busy_s":               "s",
	"er.entities":                "count",
	"er.busy_s":                  "s",
	"model.dict_values":          "count",
	"chase.shared_s":             "s",
	"chase.ground.calls":         "count",
	"chase.ground.busy_s":        "s",
	"chase.ground.alloc_mb":      "MiB",
	"chase.ground.steps":         "count",
	"chase.extend.calls":         "count",
	"chase.extend.busy_s":        "s",
	"chase.run.calls":            "count",
	"chase.run.busy_s":           "s",
	"topk.calls":                 "count",
	"topk.busy_s":                "s",
	"topk.checks":                "count",
	"topk.yield":                 "ratio",
	"topk.budget_hits":           "count",
	"vcache.hits":                "count",
	"vcache.misses":              "count",
	"vcache.hit_ratio":           "ratio",
	"pipeline.worker_busy_ratio": "ratio",
	"pipeline.entity_p99_ms":     "ms",
	"pipeline.settled.hits":      "count",
	"pipeline.settled.misses":    "count",
	"pipeline.settled.hit_ratio": "ratio",
	"pipeline.apply.busy_s":      "s",
	"pipeline.query.busy_s":      "s",
	"wal.appends":                "count",
	"wal.busy_s":                 "s",
	"wal.bytes_per_tuple":        "B",
	"server.json_s":              "s",
	"server.http_s":              "s",
	"server.rejected":            "count",
	"append_p50_ms":              "ms",
	"append_p99_ms":              "ms",
	"topk_p50_ms":                "ms",
	"topk_p99_ms":                "ms",
	"get_p50_ms":                 "ms",
	"get_p99_ms":                 "ms",
	"load.lag_p99_ms":            "ms",
	"trace.coverage":             "ratio",
	"trace.overhead":             "ratio",
}

// serveOnlyLayers are the per-layer metrics only serve_mix exercises;
// batch workloads report them as measured zeros.
var serveOnlyLayers = []string{
	"chase.extend.calls", "chase.extend.busy_s",
	"pipeline.settled.hits", "pipeline.settled.misses", "pipeline.settled.hit_ratio",
	"pipeline.apply.busy_s", "pipeline.query.busy_s",
	"wal.appends", "wal.busy_s", "wal.bytes_per_tuple",
	"server.json_s", "server.http_s", "server.rejected",
	"append_p50_ms", "append_p99_ms", "topk_p50_ms", "topk_p99_ms", "get_p50_ms", "get_p99_ms",
	"load.lag_p99_ms",
}

// batchOnlyLayers are the per-layer metrics of the CSV ingest chain,
// which serve_mix's traced replay does not run (the daemon's seed is
// set-up, outside the measured ops).
var batchOnlyLayers = []string{
	"csvio.rows", "csvio.busy_s", "er.entities", "er.busy_s",
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
