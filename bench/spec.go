package main

// The benchmark's vocabulary: workload names, end-to-end metrics and
// per-layer metrics. BENCHMARK.json at the repository root carries the
// same lists plus the regression bounds; TestSpecMatchesBenchmarkJSON
// keeps the two from drifting.

type workloadDef struct {
	Name string
	// Op is the unit of work the per-op metrics are normalised by.
	Op  string
	Why string
}

var workloads = []workloadDef{
	{"scan_sim_mix", "domain", "real healthy/defective population on govscan's ScanStream path (JSONL + checkpoints); wall is timeout scheduling and reorder-window stalls, almost no CPU"},
	{"scan_sim_healthy", "domain", "healthy subset on Scanner.Scan (slice path of core.Study.RunActive); no timeouts, so wall = CPU / cores: codec, resolver caches, zone lookup, result assembly"},
	{"scan_udp_loopback", "domain", "healthy subset over udpx sendmmsg/recvmmsg to one UDPServer socket per address on the host's loopback; client, server and kernel all real"},
	{"serve_zipf", "query", "one cached authserver behind UDP+TCP listeners under a zipf name mix with 5% forced misses; closed loop for capacity, open loop at three fixed rates for latency"},
	{"analysis_report", "report", "PDNS dump to the paper's section IV: ReadJSONL, view, stability filter, corpus compile, every figure and table, report text; shares only dnsname with the scanners"},
}

type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd is measured with tracing off and emitted by every workload.
// "op" is the workload's unit of work (workloadDef.Op).
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher"},
	{"cpu_us_per_op", "us", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"op_tail_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer is emitted by the traced run. A layer a workload never
// enters reports 0 there: no calls, no time.
var perLayer = []metricDef{
	{"dnsname.parse_ns", "ns", "lower"},
	{"dnsname.labels_ns", "ns", "lower"},
	{"dnsname.labels_allocs", "count", "lower"},
	{"dnswire.encode_query_ns", "ns", "lower"},
	{"dnswire.encode_query_allocs", "count", "lower"},
	{"dnswire.decode_response_ns", "ns", "lower"},
	{"dnswire.decode_response_allocs", "count", "lower"},
	{"dnswire.encode_response_ns", "ns", "lower"},
	{"dnswire.encode_response_allocs", "count", "lower"},
	{"zone.lookup_ns", "ns", "lower"},
	{"zone.lookup_allocs", "count", "lower"},
	{"authserver.serve_cached_ns", "ns", "lower"},
	{"authserver.serve_cached_allocs", "count", "lower"},
	{"authserver.serve_uncached_ns", "ns", "lower"},
	{"authserver.serve_uncached_allocs", "count", "lower"},
	{"authserver.cache_hit_share", "share", "higher"},
	{"authserver.udp_rtt_us", "us", "lower"},
	{"authserver.tcp_rtt_us", "us", "lower"},
	{"authserver.p50_us_mid", "us", "lower"},
	{"authserver.p99_us_mid", "us", "lower"},
	{"authserver.p999_us", "us", "lower"},
	{"authserver.p99_us_low", "us", "lower"},
	{"authserver.p99_us_high", "us", "lower"},
	{"authserver.loss_share_high", "share", "lower"},
	{"loadgen.lateness_p99_us", "us", "lower"},
	{"simnet.exchange_ns", "ns", "lower"},
	{"udpx.exchange_ns", "ns", "lower"},
	{"udpx.exchange_allocs", "count", "lower"},
	{"udpx.syscalls_per_query", "count", "lower"},
	{"udpx.dgrams_per_recvbatch", "count", "higher"},
	{"udpx.inflight_peak", "count", "higher"},
	{"resolver.query_ns", "ns", "lower"},
	{"resolver.query_allocs", "count", "lower"},
	{"resolver.resolve_cold_us", "us", "lower"},
	{"resolver.resolve_warm_us", "us", "lower"},
	{"resolver.queries_per_domain", "count", "lower"},
	{"resolver.exchanges_per_domain", "count", "lower"},
	{"resolver.timeouts_per_domain", "count", "lower"},
	{"resolver.host_cache_hit_share", "share", "higher"},
	{"resolver.zone_cache_hit_share", "share", "higher"},
	{"resolver.coalesced_share", "share", "higher"},
	{"resolver.inflight_mean", "count", "higher"},
	{"resolver.transport_wait_share", "share", "lower"},
	{"measure.scan_domain_warm_us", "us", "lower"},
	{"measure.scan_domain_warm_allocs", "count", "lower"},
	{"measure.domain_self_us", "us", "lower"},
	{"measure.domain_p50_ms", "ms", "lower"},
	{"measure.stream_highwater", "count", "lower"},
	{"measure.second_round_share", "share", "lower"},
	{"measure.jsonl_encode_ns", "ns", "lower"},
	{"measure.digest_add_ns", "ns", "lower"},
	{"measure.checkpoint_ms", "ms", "lower"},
	{"measure.scaling_efficiency", "share", "higher"},
	{"measure.cores_busy", "count", "higher"},
	{"monitor.epoch_overhead_share", "share", "lower"},
	{"obs.metrics_overhead_share", "share", "lower"},
	{"trace.flight_overhead_share", "share", "lower"},
	{"trace.overhead_share", "share", "lower"},
	{"pdns.read_jsonl_ms", "ms", "lower"},
	{"pdns.view_stable_ms", "ms", "lower"},
	{"analysis.corpus_compile_ms", "ms", "lower"},
	{"analysis.passive_figures_ms", "ms", "lower"},
	{"analysis.active_figures_ms", "ms", "lower"},
	{"core.write_report_ms", "ms", "lower"},
	{"worldgen.generate_ms", "ms", "lower"},
	{"worldgen.build_ms", "ms", "lower"},
	{"attribution.unexplained_share", "share", "lower"},
}
