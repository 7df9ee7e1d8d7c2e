package main

// def declares one metric: what BENCHMARK.json lists and -compare
// judges by. Bound is the share of the baseline median an end-to-end
// metric may worsen by; per-layer metrics have none.
type def struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEndDefs are what a user of the system sees, per workload, with
// tracing off. failed_ops_share is reported beside them (and as
// attempted/failed on the driver line) but is not listed here: it is 0
// on a healthy run, and a bound relative to 0 means nothing.
//
// The timing bounds are the widest the driver accepts, not the 10-15 %
// one would like: on the shared 2-core host this was built on, the same
// binary on the same seed moves by up to 15-20 % between runs (see
// README.md, "Segments"), and a bound must stay above that spread. A
// claimed gain is judged by paired alternating runs, which resolve much
// less than the bound.
var endToEndDefs = []def{
	{"setup_s", "s", lower, 0.25},
	{"subnets_per_s", "1/s", higher, 0.25},
	{"op_ms_p50", "ms", lower, 0.25},
	{"op_ms_p90", "ms", lower, 0.25},
	{"allocs_per_subnet", "count", lower, 0.05},
	{"bytes_per_subnet", "B", lower, 0.05},
	{"cpu_ms_per_subnet", "ms", lower, 0.25},
}

var perLayerDefs = buildPerLayerDefs()

func buildPerLayerDefs() []def {
	d := []def{
		{Name: "supernet.sample_us_per_subnet", Unit: "us", Better: lower},
		{Name: "engine.new_world_us_per_subnet", Unit: "us", Better: lower},

		{Name: "csp.admit_ns_per_subnet", Unit: "ns", Better: lower},
		{Name: "csp.blocked_scans_per_task", Unit: "count", Better: lower},
		{Name: "csp.parks_per_task", Unit: "count", Better: lower},
		{Name: "csp.sched_delay_events_per_subnet", Unit: "count", Better: lower},

		{Name: "engine.run_ms_p50", Unit: "ms", Better: lower},
		{Name: "engine.run_untraced_ms_p50", Unit: "ms", Better: lower},
		{Name: "engine.stage_busy_share", Unit: "share", Better: higher},
		{Name: "engine.stage_idle_share_max", Unit: "share", Better: lower},
		{Name: "engine.transfers_per_subnet", Unit: "count", Better: lower},
		{Name: "engine.merge_stage_traces_us_per_event", Unit: "us", Better: lower},

		{Name: "trace.per_layer_equal_ns_per_event", Unit: "ns", Better: lower},
		{Name: "trace.canonical_ns_per_event", Unit: "ns", Better: lower},

		{Name: "train.step_us_dim8", Unit: "us", Better: lower},
		{Name: "train.step_us_dim64", Unit: "us", Better: lower},
		{Name: "train.sequential_us_per_subnet", Unit: "us", Better: lower},
		{Name: "train.replay_us_per_subnet", Unit: "us", Better: lower},
		{Name: "train.replay_share", Unit: "share", Better: lower},
		{Name: "tensor.matvec_ns_dim64", Unit: "ns", Better: lower},
		{Name: "tensor.outer_accum_ns_dim64", Unit: "ns", Better: lower},
		{Name: "tensor.checksum_ns_per_kib", Unit: "ns", Better: lower},

		{Name: "prefetch.hit_rate", Unit: "share", Better: higher},
		{Name: "prefetch.late_share", Unit: "share", Better: lower},
		{Name: "prefetch.stall_ms_per_subnet", Unit: "ms", Better: lower},
		{Name: "prefetch.dropped_per_subnet", Unit: "count", Better: lower},
		{Name: "prefetch.forced_evictions_per_subnet", Unit: "count", Better: lower},
		{Name: "prefetch.swap_in_bytes_per_subnet", Unit: "B", Better: lower},
		{Name: "prefetch.acquire_release_ns", Unit: "ns", Better: lower},

		{Name: "transport.frame_encode_ns", Unit: "ns", Better: lower},
		{Name: "transport.frame_parse_ns", Unit: "ns", Better: lower},
		{Name: "transport.chan_hop_ns", Unit: "ns", Better: lower},
		{Name: "transport.chan_run_overhead_pct", Unit: "%", Better: lower},
		{Name: "transport.link_rtt_us_p50", Unit: "us", Better: lower},
		{Name: "transport.link_frames_per_s", Unit: "1/s", Better: higher},
		{Name: "transport.retransmits_per_job", Unit: "count", Better: lower},
		{Name: "transport.reconnects_per_job", Unit: "count", Better: lower},

		{Name: "distrib.job_fixed_ms", Unit: "ms", Better: lower},
		{Name: "distrib.marginal_us_per_subnet", Unit: "us", Better: lower},
		{Name: "distrib.link_frames_per_subnet", Unit: "count", Better: lower},

		{Name: "fault.checkpoint_encode_ns", Unit: "ns", Better: lower},
		{Name: "fault.checkpoint_save_us", Unit: "us", Better: lower},
		{Name: "fault.saves_per_subnet", Unit: "count", Better: lower},
		{Name: "fault.checkpointed_run_overhead_pct", Unit: "%", Better: lower},
		{Name: "supervise.recovery_ms_p50", Unit: "ms", Better: lower},
		{Name: "supervise.restarts_per_op", Unit: "count", Better: lower},
	}
	for _, pol := range simPolicies {
		d = append(d, def{Name: "sim.run_ms_p50." + pol, Unit: "ms", Better: lower})
	}
	for _, pol := range simPolicies {
		d = append(d, def{Name: "sim.bubble_ratio." + pol, Unit: "share", Better: lower})
	}
	for _, pol := range simPolicies {
		d = append(d, def{Name: "sim.samples_per_s." + pol, Unit: "1/s", Better: higher})
	}
	return append(d,
		def{Name: "telemetry.events_per_subnet", Unit: "count", Better: lower},
		def{Name: "telemetry.dropped_events", Unit: "count", Better: lower},
		def{Name: "telemetry.trace_overhead_pct", Unit: "%", Better: lower},
		def{Name: "process.peak_rss_mb", Unit: "MB", Better: lower},
		def{Name: "process.gc_pause_ms", Unit: "ms", Better: lower},
		def{Name: "process.goroutines_leaked", Unit: "count", Better: lower},
	)
}

// div is a/b, or 0 when the workload never exercised the denominator.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// engineMs returns, per op, the wall time of the op's executor call:
// the spanEngine child, or on sim-sweep the four policy runs together.
func engineMs(p *pass) []float64 {
	if xs := p.child[spanEngine]; len(xs) > 0 {
		return xs
	}
	var out []float64
	for _, pol := range simPolicies {
		for i, x := range p.child[spanSim+pol] {
			if i == len(out) {
				out = append(out, 0)
			}
			out[i] += x
		}
	}
	return out
}

// perLayer reduces the traced pass (and the untraced one it is compared
// with) to the per-layer metrics that come from running the workload
// itself; the standalone probes add the rest.
func perLayer(in *instance, untraced, traced *pass) metrics {
	m := metrics{}
	c := &traced.c
	sub := float64(traced.subnets)
	ops := float64(len(traced.opMs))

	m.set("csp.blocked_scans_per_task", "count", div(c.blockedScans, c.tasks))
	m.set("csp.parks_per_task", "count", div(c.parks, c.tasks))
	m.set("csp.sched_delay_events_per_subnet", "count", div(c.schedDelays, sub))

	m.set("engine.run_ms_p50", "ms", median(engineMs(traced)))
	m.set("engine.run_untraced_ms_p50", "ms", median(engineMs(untraced)))
	m.set("engine.stage_busy_share", "share", div(sum(c.busyShare), float64(len(c.busyShare))))
	m.set("engine.stage_idle_share_max", "share", div(sum(c.idleShareMax), float64(len(c.idleShareMax))))
	m.set("engine.transfers_per_subnet", "count", div(c.transfers, sub))

	m.set("train.replay_us_per_subnet", "us", median(traced.child[spanReplay])*1e3/float64(in.subnets))
	m.set("train.replay_share", "share", div(sum(traced.child[spanReplay]), sum(traced.opMs)))

	m.set("prefetch.hit_rate", "share", div(c.hits, c.hits+c.misses))
	m.set("prefetch.late_share", "share", div(c.late, c.hits+c.misses))
	m.set("prefetch.stall_ms_per_subnet", "ms", div(c.stallMs, sub))
	m.set("prefetch.dropped_per_subnet", "count", div(c.droppedPrefetch, sub))
	m.set("prefetch.forced_evictions_per_subnet", "count", div(c.forcedEvictions, sub))
	m.set("prefetch.swap_in_bytes_per_subnet", "B", div(c.swapInBytes, sub))

	m.set("transport.retransmits_per_job", "count", div(c.linkRetransmits, ops))
	m.set("transport.reconnects_per_job", "count", div(c.linkReconnects, ops))
	m.set("distrib.link_frames_per_subnet", "count", div(c.linkSends, sub))

	m.set("fault.saves_per_subnet", "count", div(c.checkpoints, sub))
	m.set("supervise.recovery_ms_p50", "ms", median(c.recoveryMs))
	m.set("supervise.restarts_per_op", "count", div(c.restarts, ops))

	for _, pol := range simPolicies {
		m.set("sim.run_ms_p50."+pol, "ms", median(traced.child[spanSim+pol]))
	}

	m.set("telemetry.events_per_subnet", "count", div(c.emitted, sub))
	m.set("telemetry.dropped_events", "count", c.droppedEvents)
	m.set("telemetry.trace_overhead_pct", "%", (div(median(traced.opMs), median(untraced.opMs))-1)*100)

	m.set("process.peak_rss_mb", "MB", float64(traced.use.maxRSSKB)/1024)
	m.set("process.gc_pause_ms", "ms", float64(traced.use.gcPauseNs)/1e6)
	return m
}

// fillAbsent gives every declared per-layer metric the workload did not
// exercise the value 0, so each workload emits the full list.
func fillAbsent(m metrics) {
	for _, d := range perLayerDefs {
		if _, ok := m[d.Name]; !ok {
			m.set(d.Name, d.Unit, 0)
		}
	}
}
