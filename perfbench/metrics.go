package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions; TestBenchmarkJSONMatches keeps the two in
// step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are what a user of the network sees, from an untraced run.
var endToEnd = []metricDef{
	{"search_per_s", "1/s", "higher"},
	{"search_p50_ms", "ms", "lower"},
	{"search_p99_ms", "ms", "lower"},
	{"publish_per_s", "1/s", "higher"},
	{"publish_p50_ms", "ms", "lower"},
	{"publish_p90_ms", "ms", "lower"},
	{"recall", "frac", "higher"},
	{"wire_kb_per_search", "KB", "lower"},
	{"wire_kb_per_publish", "KB", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// transportFamilies are the RPC families with per-family metrics.
var transportFamilies = []family{famChord, famDirGet, famDirPost, famPeerQuery}

// perLayer are single-layer figures from a traced run. Which end-to-end
// figure each layer should move, and on which workload:
//   - transport, codec: search_per_s and search_p50_ms on search-cold-tcp,
//     publish_per_s, wire_kb_per_search everywhere; little on search-warm.
//   - chord: search_p50_ms on search-cold-tcp, publish_p50_ms; nothing on
//     search-warm.
//   - directory: fetch → search_p99_ms on search-cold-tcp; cache →
//     search_p99_ms on search-warm; publish → publish_per_s.
//   - core: search_p50_ms on search-cold-tcp (63 candidates) more than
//     on search-warm (9).
//   - ir: search_per_s and search_p50_ms on search-warm; nothing on
//     search-cold-tcp.
//   - minerva: search_p99_ms on search-warm, through the fan-out.
//   - runtime: search_per_s everywhere; two clients on two cores share
//     them with the collector.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, f := range transportFamilies {
		n := "transport." + familyNames[f]
		out = append(out,
			metricDef{n + ".calls_per_op", "calls/op", "lower"},
			metricDef{n + ".call_us_p50", "us", "lower"},
			metricDef{n + ".call_us_p99", "us", "lower"},
			metricDef{n + ".bytes_per_call", "B", "lower"},
		)
	}
	return append(out,
		metricDef{"transport.errors_per_op", "errors/op", "lower"},
		metricDef{"codec.peerlist.decode_us", "us", "lower"},
		metricDef{"codec.results.decode_us", "us", "lower"},
		metricDef{"codec.posts.encode_us", "us", "lower"},
		metricDef{"codec.decode_allocs_per_kb", "allocs/KB", "lower"},
		metricDef{"chord.replicaset_us", "us", "lower"},
		metricDef{"chord.rpcs_per_lookup", "rpcs", "lower"},
		metricDef{"directory.fetch_us", "us", "lower"},
		metricDef{"directory.cache_hit_ratio", "frac", "higher"},
		metricDef{"directory.synopsis_decodes_per_search", "decodes", "lower"},
		metricDef{"directory.publish_ms", "ms", "lower"},
		metricDef{"core.candidates_per_search", "peers", "lower"},
		metricDef{"core.evaluations_per_search", "evals", "lower"},
		metricDef{"core.lazy_skips_per_search", "skips", "higher"},
		metricDef{"ir.localq_us", "us", "lower"},
		metricDef{"ir.postings_per_query", "postings", "lower"},
		metricDef{"ir.localq_ns_per_posting", "ns", "lower"},
		metricDef{"ir.merge_us", "us", "lower"},
		metricDef{"minerva.search_self_us", "us", "lower"},
		metricDef{"minerva.fanout_us", "us", "lower"},
		metricDef{"minerva.build_posts_us", "us", "lower"},
		metricDef{"runtime.alloc_kb_per_op", "KB", "lower"},
		metricDef{"runtime.gc_cpu_frac", "frac", "lower"},
		metricDef{"trace.overhead_frac", "frac", "lower"},
	)
}()
