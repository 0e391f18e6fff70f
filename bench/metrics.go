package main

// metricDef names one reported metric. Bound is the share of the parent's
// median by which an end-to-end metric may get worse; per-layer metrics
// have none. Exact marks a statistic of the deterministic simulator or
// session layer that must repeat bit for bit at a fixed seed.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Exact  bool
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists the metrics every workload reports from the untraced
// pass. BENCHMARK.json carries the same table; a test keeps them equal.
// The bounds have to hold across seeds on a shared host whose speed drifts by
// a tenth within minutes (README, Steadiness), which is why the timing bounds
// are wide; -compare holds exact metrics to equality.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: higher, Bound: 0.20},
	{Name: "op_ms_p50", Unit: "ms", Better: lower, Bound: 0.20},
	{Name: "op_ms_p99", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: lower, Bound: 0.10},
	{Name: "alloc_kb_per_op", Unit: "KiB", Better: lower, Bound: 0.10},
	{Name: "heap_after_setup_mb", Unit: "MiB", Better: lower, Bound: 0.05},
	{Name: "delivered_frac", Unit: "ratio", Better: higher, Bound: 0.10, Exact: true},
}

// perLayer lists the metrics of single layers, reported from the traced
// pass. A workload that does not reach a layer reports 0 for it.
var perLayer = []metricDef{
	// Delivery cost seen by a user; they do not apply to session-flashcrowd,
	// so they cannot be end-to-end metrics of every workload.
	{Name: "radio.tx_per_delivery", Unit: "count", Better: lower, Exact: true},
	{Name: "sim.delivery_ms_p50", Unit: "ms", Better: lower, Exact: true},
	{Name: "packet.header_bytes_p90", Unit: "B", Better: lower, Exact: true},

	{Name: "citygen.generate_ms", Unit: "ms", Better: lower},

	{Name: "buildinggraph.build_ms", Unit: "ms", Better: lower},
	{Name: "buildinggraph.build_allocs", Unit: "count", Better: lower},
	{Name: "buildinggraph.shortest_path_us", Unit: "us", Better: lower},
	{Name: "buildinggraph.shortest_path_allocs", Unit: "count", Better: lower},
	{Name: "buildinggraph.no_path_frac", Unit: "ratio", Better: lower, Exact: true},
	{Name: "buildinggraph.diverse_paths_us", Unit: "us", Better: lower},

	{Name: "mesh.place_ms", Unit: "ms", Better: lower},
	{Name: "mesh.place_mb", Unit: "MiB", Better: lower},
	{Name: "mesh.adjacency_ms", Unit: "ms", Better: lower},
	{Name: "mesh.adjacency_allocs", Unit: "count", Better: lower},
	{Name: "mesh.adjacency_mb", Unit: "MiB", Better: lower},
	{Name: "mesh.unionfind_ms", Unit: "ms", Better: lower},
	{Name: "mesh.min_tx_us", Unit: "us", Better: lower},
	{Name: "mesh.min_tx_allocs", Unit: "count", Better: lower},

	{Name: "conduit.compress_us", Unit: "us", Better: lower},
	{Name: "conduit.waypoints_mean", Unit: "count", Better: lower, Exact: true},
	{Name: "conduit.region_build_ns", Unit: "ns", Better: lower},
	{Name: "conduit.region_contains_ns", Unit: "ns", Better: lower},

	{Name: "packet.encode_ns", Unit: "ns", Better: lower},
	{Name: "packet.decode_ns", Unit: "ns", Better: lower},
	{Name: "packet.encode_allocs", Unit: "count", Better: lower},
	{Name: "packet.decode_allocs", Unit: "count", Better: lower},

	{Name: "fwd.decide_miss_ns", Unit: "ns", Better: lower},
	{Name: "fwd.decide_hit_ns", Unit: "ns", Better: lower},
	{Name: "fwd.cache_hit_frac", Unit: "ratio", Better: higher, Exact: true},
	{Name: "fwd.sanity_ns", Unit: "ns", Better: lower},

	{Name: "sim.new_engine_ms", Unit: "ms", Better: lower},
	{Name: "sim.run_us", Unit: "us", Better: lower},
	{Name: "sim.events", Unit: "count", Better: lower, Exact: true},
	{Name: "sim.ns_per_event", Unit: "ns", Better: lower},
	{Name: "sim.run_allocs", Unit: "count", Better: lower},
	{Name: "sim.first_reception_frac", Unit: "ratio", Better: higher, Exact: true},
	{Name: "sim.lost_to_dead_ap_per_op", Unit: "count", Better: lower, Exact: true},
	{Name: "sim.defense_overhead_frac", Unit: "ratio", Better: lower},

	{Name: "core.send_us", Unit: "us", Better: lower},
	{Name: "core.send_self_us", Unit: "us", Better: lower},
	{Name: "core.new_packet_ns", Unit: "ns", Better: lower},
	{Name: "core.send_reliable_us", Unit: "us", Better: lower},
	{Name: "core.attempts_per_send", Unit: "count", Better: lower, Exact: true},
	{Name: "core.us_per_attempt", Unit: "us", Better: lower},
	{Name: "core.rung_direct_frac", Unit: "ratio", Better: higher, Exact: true},
	{Name: "core.rung_retry_frac", Unit: "ratio", Better: lower, Exact: true},
	{Name: "core.rung_widen_frac", Unit: "ratio", Better: lower, Exact: true},
	{Name: "core.rung_multipath_frac", Unit: "ratio", Better: lower, Exact: true},
	{Name: "core.rung_flood_frac", Unit: "ratio", Better: lower, Exact: true},
	{Name: "core.rung_exhausted_frac", Unit: "ratio", Better: lower, Exact: true},
	{Name: "core.backoff_s_p50", Unit: "s", Better: lower, Exact: true},

	{Name: "faults.inject_ms", Unit: "ms", Better: lower},

	{Name: "runner.speedup_2w", Unit: "ratio", Better: higher},

	{Name: "agent.handle_new_ns", Unit: "ns", Better: lower},
	{Name: "agent.handle_dup_ns", Unit: "ns", Better: lower},
	{Name: "agent.handle_out_ns", Unit: "ns", Better: lower},
	{Name: "agent.handle_malformed_ns", Unit: "ns", Better: lower},
	{Name: "agent.handle_new_allocs", Unit: "count", Better: lower},
	{Name: "agent.dup_frac", Unit: "ratio", Better: lower, Exact: true},
	{Name: "agent.rebroadcast_frac", Unit: "ratio", Better: lower, Exact: true},
	{Name: "agent.dropped", Unit: "count", Better: lower, Exact: true},
	{Name: "agent.mb_per_agent_default", Unit: "MiB", Better: lower},
	{Name: "agent.hub_ns_per_frame", Unit: "ns", Better: lower},
	{Name: "agent.udp_loopback_fps", Unit: "1/s", Better: higher},
	{Name: "agent.udp_loss_frac", Unit: "ratio", Better: lower},

	{Name: "session.attach_ns", Unit: "ns", Better: lower},
	{Name: "session.submit_accept_ns", Unit: "ns", Better: lower},
	{Name: "session.submit_reject_ns", Unit: "ns", Better: lower},
	{Name: "session.fetch_ns", Unit: "ns", Better: lower},
	{Name: "session.ack_ns", Unit: "ns", Better: lower},
	{Name: "session.drain_ns_per_msg", Unit: "ns", Better: lower},
	{Name: "session.check_pow_ns", Unit: "ns", Better: lower},
	{Name: "session.solve_pow_us_8bit", Unit: "us", Better: lower},
	{Name: "session.solve_pow_us_12bit", Unit: "us", Better: lower},
	{Name: "session.rej_admission_frac", Unit: "ratio", Better: lower, Exact: true},
	{Name: "session.rej_ratelimit_frac", Unit: "ratio", Better: lower, Exact: true},
	{Name: "session.rej_bufferfull_frac", Unit: "ratio", Better: lower, Exact: true},
	{Name: "session.deduped", Unit: "count", Better: lower, Exact: true},
	{Name: "session.peak_tier", Unit: "count", Better: lower, Exact: true},
	{Name: "session.queue_depth_max", Unit: "count", Better: lower, Exact: true},
	{Name: "session.queue_wait_s_p50", Unit: "s", Better: lower, Exact: true},

	{Name: "postbox.put_ns", Unit: "ns", Better: lower},
	{Name: "postbox.retrieve_ns", Unit: "ns", Better: lower},
	{Name: "postbox.ack_ns", Unit: "ns", Better: lower},
	{Name: "postbox.persist_put_ns", Unit: "ns", Better: lower},
	{Name: "postbox.log_bytes_per_put", Unit: "B", Better: lower, Exact: true},

	{Name: "trafficgen.run_s", Unit: "s", Better: lower},
	{Name: "trafficgen.reject_rate", Unit: "ratio", Better: lower, Exact: true},

	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: lower},
	{Name: "bench.outside_layers_frac", Unit: "ratio", Better: lower},
}

// metricDefs indexes both tables by name.
func metricDefs() map[string]metricDef {
	defs := map[string]metricDef{}
	for _, d := range endToEnd {
		defs[d.Name] = d
	}
	for _, d := range perLayer {
		defs[d.Name] = d
	}
	return defs
}

// metrics is one pass's values by metric name.
type metrics map[string]float64
