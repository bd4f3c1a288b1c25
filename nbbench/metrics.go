package main

// metric describes one reported metric. These tables and the workload
// list in workload.go define the benchmark; BENCHMARK.json at the
// repository root restates them for tooling, and TestBenchmarkJSON keeps
// the two in step.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the untraced run's metrics, reported for every workload.
// bound is the share of the parent commit's median by which a metric may
// worsen before a change counts as a regression. On the shared 2-vCPU
// machine the benchmark was calibrated on, the host's speed drifts by
// 25-50% over minutes, and 30 s runs of unchanged code spread by up to
// 24% over ten runs (README.md, "Bounds"). A 10% bound would reject
// unchanged code, so bounds sit at the 0.25 that BENCHMARK.json allows at
// most: set-up time gets the largest, 0.25, the other metrics 0.24.
var endToEnd = []metric{
	// Child start to the end of the warm-up pass (session or server
	// open, input generation, hot-set warm-up), median over the run's
	// childRuns children.
	{"setup_s", "s", "lower", 0.25},
	// Peak resident set of each child, read from outside it; median over
	// the children.
	{"rss_peak_mb", "MB", "lower", 0.24},
	// Units of work per second: configs (insn-table), campaign passes
	// (policy-campaign), classified (slice, set) pairs (set-dueling),
	// requests (serve-mixed).
	{"work_per_s", "1/s", "higher", 0.24},
	// Median time of one operation: a pass (insn-table, policy-campaign,
	// set-dueling) or a request, job included (serve-mixed).
	{"op_p50_ms", "ms", "lower", 0.24},
}

// perLayer are the traced run's metrics, reported for every workload.
// Timings are medians of the spans named in layers.go.
var perLayer = []metric{
	{"facade.open_ms", "ms", "lower", 0},
	{"facade.session_run_hit_us", "us", "lower", 0},
	{"facade.session_run_miss_ms", "ms", "lower", 0},
	{"facade.stream_sharded_ms", "ms", "lower", 0},
	{"instbench.build_ms", "ms", "lower", 0},
	{"x86.asm_us", "us", "lower", 0},
	{"nano.run_ms", "ms", "lower", 0},
	{"nano.runs", "count", "higher", 0},
	{"nano.seqreplay_ratio", "ratio", "higher", 0},
	{"nano.seq_real_runs", "count", "lower", 0},
	{"sim.machine.ns_per_instr", "ns", "lower", 0},
	{"sim.machine.mips", "MIPS", "higher", 0},
	{"sim.cache.l1_ns_per_access", "ns", "lower", 0},
	{"sim.cache.l3_ns_per_access", "ns", "lower", 0},
	{"sim.policy.batch_ns_per_access", "ns", "lower", 0},
	{"sim.policy.scalar_ns_per_access", "ns", "lower", 0},
	{"sim.policy.fallbacks", "count", "lower", 0},
	{"sched.batch_s", "s", "lower", 0},
	{"sched.efficiency", "ratio", "higher", 0},
	{"sched.hit_us", "us", "lower", 0},
	{"sched.hit_ratio", "ratio", "higher", 0},
	{"sched.evictions", "count", "lower", 0},
	{"cachetools.infer_ms", "ms", "lower", 0},
	{"cachetools.sequences", "count", "lower", 0},
	{"cachetools.agegraph_ms", "ms", "lower", 0},
	{"cachetools.dueling_ms", "ms", "lower", 0},
	{"cachetools.seq_trials_us", "us", "lower", 0},
	{"cachetools.seq_trials", "count", "higher", 0},
	{"jobs.queue_wait_ms", "ms", "lower", 0},
	{"jobs.run_ms", "ms", "lower", 0},
	{"server.handler_hit_us", "us", "lower", 0},
	{"server.handler_miss_ms", "ms", "lower", 0},
	{"server.self_hit_us", "us", "lower", 0},
	{"server.self_miss_ms", "ms", "lower", 0},
	{"net.overhead_us", "us", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
}
