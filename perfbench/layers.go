package main

// layerDef is one per-layer metric: what it measures, and — written
// down before any measurement — which end-to-end metric it should move
// on which workload. The traced run reports every row on every
// workload; a layer that does no work on a workload reads 0 there.
type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Moves names the end-to-end metric(s) the layer should move, On
	// the workload(s) where it should.
	Moves string `json:"moves"`
	On    string `json:"on"`
}

// layerRow is one measured per-layer metric with its definition.
type layerRow struct {
	layerDef
	Value float64 `json:"value"`
}

// layerDefs is the layer → metric → workload map. All timings are p50
// per round (feedback rounds 1-4) or per segment unless named
// otherwise.
var layerDefs = []layerDef{
	{"loadgen.late_p90_ms", "ms", "lower", "harness validity: stays near 0", "all"},
	{"loadgen.inflight_max", "count", "lower", "harness validity: at most nproc", "all"},
	// The served round's tail, from the timed window. It is not an
	// end-to-end metric because no bound could hold it: whether a
	// round coincides with another session's round or with
	// segmentation moves it by 20-40% between runs.
	{"round_p90_ms", "ms", "lower", "tail of round_p50_ms: index.probe_ms (archive), index.live_retries (live)", "all"},
	{"server.overhead_ms", "ms", "lower", "round_p50_ms (HTTP round minus traced round)", "demo-feedback"},
	{"server.encode_ms", "ms", "lower", "round_p50_ms, cpu_cores", "archive-feedback"},
	{"server.response_kb", "KB", "lower", "round_p50_ms, cpu_cores", "archive-feedback"},
	{"retrieval.round_ms", "ms", "lower", "round_p50_ms", "all"},
	{"retrieval.self_ms", "ms", "lower", "query_p50_ms", "archive-feedback"},
	{"retrieval.union_bags", "count", "lower", "round_p50_ms", "archive-feedback"},
	{"retrieval.pruned_frac", "frac", "higher", "round_p50_ms", "archive-feedback"},
	{"index.probe_ms", "ms", "lower", "round_p50_ms, round_p90_ms (no change on demo)", "archive-feedback"},
	{"index.dist_evals", "count", "lower", "round_p50_ms, round_p90_ms", "archive-feedback"},
	{"index.probes", "count", "lower", "round_p50_ms, round_p90_ms", "archive-feedback"},
	{"index.build_s", "s", "lower", "setup_s", "archive-feedback"},
	{"index.bytes_per_vs", "bytes", "lower", "rss_peak_mb", "archive-feedback"},
	{"index.apply_ms", "ms", "lower", "ingestd.staleness_p50_ms", "live-ingest"},
	{"index.inserted", "count", "lower", "ingestd.staleness_p50_ms", "live-ingest"},
	{"index.compactions", "count", "lower", "ingestd.staleness_p50_ms", "live-ingest"},
	{"index.live_retries", "count", "lower", "round_p90_ms", "live-ingest"},
	{"mil.rank_ms", "ms", "lower", "round_p50_ms", "demo-feedback, archive-feedback"},
	{"kernel.cache_hit_frac", "frac", "higher", "mil.rank_ms", "demo-feedback, archive-feedback"},
	{"predicate.compile_ms", "ms", "lower", "query_p50_ms", "demo-feedback"},
	{"predicate.score_ms", "ms", "lower", "query_p50_ms", "demo-feedback"},
	{"videodb.snapshot_ms", "ms", "lower", "round_p50_ms", "live-ingest"},
	{"ingestd.staleness_p50_ms", "ms", "lower", "segment due → ApplyLive return (end-to-end freshness)", "live-ingest"},
	{"ingestd.staleness_p90_ms", "ms", "lower", "segment due → ApplyLive return (end-to-end freshness)", "live-ingest"},
	{"ingestd.admit_wait_ms", "ms", "lower", "ingestd.staleness_p90_ms", "live-ingest"},
	{"ingestd.backpressure_waits", "count", "lower", "ingestd.staleness_p90_ms", "live-ingest"},
	{"ingestd.commit_queue_ms", "ms", "lower", "ingestd.staleness_p50_ms", "live-ingest"},
	{"ingestd.lost_segments", "count", "lower", "failed operations", "live-ingest"},
	{"core.segment_ms", "ms", "lower", "ingestd.staleness_p50_ms, cpu_cores", "live-ingest"},
	{"render.frame_ms", "ms", "lower", "ingestd.staleness_p50_ms, cpu_cores", "live-ingest"},
	{"segment.background_ms", "ms", "lower", "ingestd.staleness_p50_ms, cpu_cores", "live-ingest"},
	{"segment.spcpe_frame_ms", "ms", "lower", "ingestd.staleness_p50_ms, cpu_cores", "live-ingest"},
	{"track.frame_ms", "ms", "lower", "ingestd.staleness_p50_ms, cpu_cores", "live-ingest"},
	{"window.extract_ms", "ms", "lower", "ingestd.staleness_p50_ms, cpu_cores", "live-ingest"},
	{"core.overlap_frac", "frac", "higher", "ingestd.staleness_p50_ms", "live-ingest"},
	{"trace.coverage_frac", "frac", "higher", "trace validity: share of each root span under named leaf spans", "all"},
	{"trace.overhead_frac", "frac", "lower", "trace validity: replay time with spans on over off, minus 1", "all"},
}
