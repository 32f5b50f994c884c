package main

// e2eUnits lists every end-to-end metric with its unit. Every workload
// reports all of them; README.md says what each means on each workload.
var e2eUnits = map[string]string{
	"setup_s":          "s",
	"suite_s":          "s",
	"speedup_geomean":  "x",
	"coverage_mean":    "%",
	"code_growth_mean": "%",
	"ok_frac":          "frac",
	"peak_rss_mb":      "MB",
	"ingest_p50_ms":    "ms",
	"publish_p50_ms":   "ms",
	"publish_p99_ms":   "ms",
}

// layerUnits lists every per-layer metric of the traced run with its
// unit. A layer that does no work on a workload reports 0.
var layerUnits = map[string]string{
	// The ingest tail is measured like the end-to-end latencies but has
	// no bound: on daemon-drift it is set by POSTs that wait for the Go
	// scheduler while both repack workers run, and those waits grow with
	// host load (17-30 ms over ten runs on a 2-vCPU VM).
	"ingest_p99_ms": "ms",

	"report.busy_frac": "frac",

	"cpu.evaluate_s":            "s",
	"cpu.timed_minsts_per_s":    "Minst/s",
	"cpu.superblock_coverage":   "frac",
	"cpu.blockcache_hit_rate":   "frac",
	"cpu.side_exits":            "count",
	"profile.s":                 "s",
	"profile.ns_per_inst":       "ns",
	"profile.detections":        "count",
	"profile.phases":            "count",
	"region.s":                  "s",
	"region.regions":            "count",
	"pack.s":                    "s",
	"pack.packages":             "count",
	"pack.links":                "count",
	"opt.s":                     "s",
	"equiv.s":                   "s",
	"equiv.paths_proved":        "count",
	"equiv.paths_fuzzed":        "count",
	"equiv.proved_frac":         "frac",
	"core.encode_s":             "s",
	"core.encoded_kb":           "KB",
	"core.decode_s":             "s",
	"core.materialize_s":        "s",
	"core.image_hash_s":         "s",
	"cas.get_s":                 "s",
	"cas.put_s":                 "s",
	"cas.flush_s":               "s",
	"cas.hits":                  "count",
	"cas.misses":                "count",
	"cas.bytes":                 "B",
	"vpackd.queue_wait_ms_p50":  "ms",
	"vpackd.queue_wait_ms_p99":  "ms",
	"vpackd.build_ms_p50":       "ms",
	"vpackd.build_ms_p99":       "ms",
	"vpackd.repacks":            "count",
	"vpackd.records_per_repack": "count",
	"vpackd.queue_rejected":     "count",
	"vpackd.pool_busy_frac":     "frac",
	"drift.windows":             "count",
	"drift.peak_score":          "score",
	"telemetry.scrape_ms_p50":   "ms",
	"telemetry.series":          "count",
	"go.alloc_mb":               "MB",
	"go.gc_cycles":              "count",

	"trace.overhead_frac":    "frac",
	"loadgen.gen_lag_ms":     "ms",
	"loadgen.offered":        "count",
	"loadgen.sent":           "count",
	"loadgen.unmatched_cap":  "count",
	"loadgen.unmatched_tail": "count",
	"host.calibration_ns":    "ns",
	"host.nproc":             "count",
	"fail_frac":              "frac",
}
