package main

// The metric names and units this program emits. BENCHMARK.json lists the
// same names with their bounds; smoke_test.go holds the two together.

var endToEndUnits = map[string]string{
	"setup_s":       "s",
	"rec_p50_ms":    "ms",
	"rec_p90_ms":    "ms",
	"rec_qps":       "1/s",
	"update_p50_ms": "ms",
	"recall_at_10":  "ratio",
	"heap_live_mb":  "MB",
}

var perLayerUnits = map[string]string{
	// read ladder
	"server.http_self_us":              "us",
	"server.resp_bytes":                "bytes",
	"server.cache_hit_us":              "us",
	"server.cache_hit_ratio":           "ratio",
	"videorec.backend_self_us":         "us",
	"videorec.batch64_us_per_query":    "us",
	"shard.merge_us":                   "us",
	"core.query_compile_us":            "us",
	"core.gather_us":                   "us",
	"core.refine_us":                   "us",
	"core.candidates_per_query":        "count",
	"core.candidates_over_corpus":      "ratio",
	"core.topk_over_candidates":        "ratio",
	"index.postings_scanned_per_query": "count",
	"signature.kj_ns_per_pair":         "ns",
	"core.rec_allocs_per_op":           "count",
	"core.rec_bytes_per_op":            "bytes",
	"bench.traced_http_us":             "us",
	"bench.trace_overhead_ratio":       "ratio",
	// write path
	"server.update_self_us":           "us",
	"videorec.apply_us":               "us",
	"videorec.apply_allocs_per_op":    "count",
	"videorec.apply_bytes_per_op":     "bytes",
	"videorec.add_prepared_us":        "us",
	"core.derive_us":                  "us",
	"core.republish_self_us":          "us",
	"core.videos_revectorized":        "count",
	"community.maintain_us":           "us",
	"community.unions":                "count",
	"community.splits":                "count",
	"community.users_moved":           "count",
	"store.journal_append_us":         "us",
	"store.journal_bytes_per_comment": "bytes",
	// set-up
	"bench.generate_s":    "s",
	"core.ingest_s":       "s",
	"core.build_social_s": "s",
	"store.save_s":        "s",
	"store.snapshot_mb":   "MB",
	"videorec.load_s":     "s",
	"server.listen_s":     "s",
	"bench.setup_wall_s":  "s",
	// open-loop ladder
	"loadgen.base_rate_qps": "1/s",
	"loadgen.rate_ok_qps":   "1/s",
	"loadgen.rung1_p99_ms":  "ms",
	"loadgen.rung2_p99_ms":  "ms",
	"loadgen.rung3_p99_ms":  "ms",
	"loadgen.rung4_p99_ms":  "ms",
	"loadgen.late_p99_ms":   "ms",
	"loadgen.backlog_end":   "count",
	"runtime.gc_cycles":     "count",
	"runtime.gc_pause_ms":   "ms",
}
