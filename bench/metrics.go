package main

// metricDef declares one metric: BENCHMARK.json is generated from these
// tables (`-manifest`), and smoke_test.go checks the committed file against
// them, so the names every later claim uses live in exactly one place.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// runSeconds is how long one driver run measures, and benchCommand how the
// driver starts it (both fixed in BENCHMARK.json).
const runSeconds = 16

var benchCommand = []string{"bash", "bench/run.sh"}

// endToEnd are what a user of the runtime sees, reported per workload with
// tracing off. Bound is the share of the parent's median by which a metric
// may worsen before a change counts as a regression. The 10-seed
// run-to-run spreads (interquartile range ÷ median) measured on the 2-vCPU
// reference box when the benchmark was defined were 7–14 % for the timings
// and up to 3 % for allocation (README.md has the table): the box drifts
// by more than the issue's hoped-for 10 % from minute to minute, so the
// timing bounds sit at the manifest's ceiling.
var endToEnd = []metricDef{
	{Name: "s_per_iter", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "mcells_per_s", Unit: "Mcells/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_s_per_iter", Unit: "core-s", Better: "lower", Bound: 0.25},
	{Name: "alloc_B_per_iter", Unit: "B", Better: "lower", Bound: 0.10},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are single-layer numbers, reported per workload by the traced
// run. Sources: T = timing decorators around the traced repetitions, C =
// exact counters of the run, P = layer probe on a fixed input. They carry
// no bound: they say where a change landed, not whether it is acceptable.
var perLayer = []metricDef{
	// solver
	{Name: "solver.step_calls", Unit: "count", Better: "lower"},
	{Name: "solver.step_busy_s", Unit: "s", Better: "lower"},
	{Name: "solver.maxdt_busy_s", Unit: "s", Better: "lower"},
	{Name: "solver.flag_busy_s", Unit: "s", Better: "lower"},
	{Name: "solver.ns_per_cell", Unit: "ns", Better: "lower"},
	{Name: "solver.euler3d_mcells_s", Unit: "Mcells/s", Better: "higher"},
	{Name: "solver.muscl3d_mcells_s", Unit: "Mcells/s", Better: "higher"},
	{Name: "solver.advect2d_mcells_s", Unit: "Mcells/s", Better: "higher"},
	{Name: "solver.euler3d_GBps_computed", Unit: "GB/s", Better: "higher"},
	{Name: "solver.euler3d_flops_per_B_computed", Unit: "flop/B", Better: "higher"},
	{Name: "solver.euler3d_roofline_share", Unit: "fraction", Better: "higher"},
	{Name: "solver.outflowbc_GBps", Unit: "GB/s", Better: "higher"},
	// transport
	{Name: "transport.send_calls", Unit: "count", Better: "lower"},
	{Name: "transport.send_B", Unit: "B", Better: "lower"},
	{Name: "transport.send_busy_s", Unit: "s", Better: "lower"},
	{Name: "transport.recv_calls", Unit: "count", Better: "lower"},
	{Name: "transport.recv_wait_s", Unit: "s", Better: "lower"},
	{Name: "transport.collective_calls", Unit: "count", Better: "lower"},
	{Name: "transport.collective_wait_s", Unit: "s", Better: "lower"},
	{Name: "transport.tryrecv_calls", Unit: "count", Better: "lower"},
	{Name: "transport.chan_pingpong_64B_us", Unit: "us", Better: "lower"},
	{Name: "transport.tcp_pingpong_64B_us", Unit: "us", Better: "lower"},
	{Name: "transport.chan_pingpong_8K_us", Unit: "us", Better: "lower"},
	{Name: "transport.tcp_pingpong_8K_us", Unit: "us", Better: "lower"},
	{Name: "transport.chan_stream_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "transport.tcp_stream_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "transport.frame_pack_GBps", Unit: "GB/s", Better: "higher"},
	{Name: "transport.frame_unpack_GBps", Unit: "GB/s", Better: "higher"},
	{Name: "transport.allreduce_us", Unit: "us", Better: "lower"},
	// engine
	{Name: "engine.self_s", Unit: "s", Better: "lower"},
	{Name: "engine.advance_busy_s", Unit: "s", Better: "lower"},
	{Name: "engine.flags_busy_s", Unit: "s", Better: "lower"},
	{Name: "engine.regridded_busy_s", Unit: "s", Better: "lower"},
	{Name: "engine.control_self_s", Unit: "s", Better: "lower"},
	{Name: "engine.msgs_per_iter", Unit: "count", Better: "lower"},
	{Name: "engine.wire_B_per_iter", Unit: "B", Better: "lower"},
	{Name: "engine.migrated_B_per_iter", Unit: "B", Better: "lower"},
	{Name: "engine.retained_B_per_iter", Unit: "B", Better: "higher"},
	{Name: "engine.repartitions", Unit: "count", Better: "lower"},
	{Name: "engine.interior_step_share", Unit: "fraction", Better: "higher"},
	{Name: "engine.checkpoints", Unit: "count", Better: "lower"},
	{Name: "engine.speedup_vs_serial", Unit: "ratio", Better: "higher"},
	{Name: "engine.virt_exec_s", Unit: "virtual-s", Better: "lower"},
	{Name: "engine.ghostplan_2k_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.repartition_plan_2k_ms", Unit: "ms", Better: "lower"},
	// partition
	{Name: "partition.calls", Unit: "count", Better: "lower"},
	{Name: "partition.busy_s", Unit: "s", Better: "lower"},
	{Name: "partition.boxes_in", Unit: "count", Better: "lower"},
	{Name: "partition.boxes_out", Unit: "count", Better: "lower"},
	{Name: "partition.max_imbalance_pct", Unit: "%", Better: "lower"},
	{Name: "partition.hetero_4k_ms", Unit: "ms", Better: "lower"},
	{Name: "partition.composite_4k_ms", Unit: "ms", Better: "lower"},
	{Name: "partition.sfchetero_4k_ms", Unit: "ms", Better: "lower"},
	{Name: "partition.hierarchical_4k_ms", Unit: "ms", Better: "lower"},
	{Name: "partition.hetero_64k_ms", Unit: "ms", Better: "lower"},
	{Name: "partition.remap_4k_ms", Unit: "ms", Better: "lower"},
	{Name: "partition.hetero_4k_imbalance_pct", Unit: "%", Better: "lower"},
	// amr
	{Name: "amr.cluster_ms", Unit: "ms", Better: "lower"},
	{Name: "amr.regrid_ms", Unit: "ms", Better: "lower"},
	{Name: "amr.prolong_GBps", Unit: "GB/s", Better: "higher"},
	{Name: "amr.restrict_GBps", Unit: "GB/s", Better: "higher"},
	{Name: "amr.copyoverlap_GBps", Unit: "GB/s", Better: "higher"},
	// checkpoint
	{Name: "checkpoint.shards_written", Unit: "count", Better: "lower"},
	{Name: "checkpoint.B_written", Unit: "B", Better: "lower"},
	{Name: "checkpoint.save_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "checkpoint.load_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "checkpoint.state_save_MBps", Unit: "MB/s", Better: "higher"},
	// monitor / capacity / cluster
	{Name: "monitor.sense_32_us", Unit: "us", Better: "lower"},
	{Name: "monitor.sense_32_w4_us", Unit: "us", Better: "lower"},
	{Name: "monitor.senses", Unit: "count", Better: "lower"},
	{Name: "monitor.sense_failures", Unit: "count", Better: "lower"},
	{Name: "capacity.relative_32_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.step_cost_ns", Unit: "ns", Better: "lower"},
	// geom / sfc / hdda
	{Name: "geom.index_build_2k_us", Unit: "us", Better: "lower"},
	{Name: "geom.index_query_ns", Unit: "ns", Better: "lower"},
	{Name: "sfc.hilbert_ns", Unit: "ns", Better: "lower"},
	{Name: "sfc.morton_ns", Unit: "ns", Better: "lower"},
	{Name: "hdda.put_ns", Unit: "ns", Better: "lower"},
	{Name: "hdda.get_ns", Unit: "ns", Better: "lower"},
	{Name: "hdda.gomap_get_ns", Unit: "ns", Better: "lower"},
	// obs and the benchmark's own tracing
	{Name: "obs.trace_stitch_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.span_ns", Unit: "ns", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.spans_reconcile", Unit: "fraction", Better: "higher"},
	// machine: the roofline's denominators; a shift here between two sets
	// means the box changed, not the code
	{Name: "machine.triad_GBps", Unit: "GB/s", Better: "higher"},
	{Name: "machine.peak_GFLOPs", Unit: "GFLOP/s", Better: "higher"},
	{Name: "machine.nproc", Unit: "count", Better: "higher"},
	{Name: "machine.gomaxprocs", Unit: "count", Better: "higher"},
}

// manifest is the BENCHMARK.json document.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []metricDef    `json:"per_layer"` // Bound is 0 and omitted
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func buildManifest() manifest {
	m := manifest{Command: benchCommand, Paths: []string{"bench"}, RunSeconds: runSeconds, EndToEnd: endToEnd, PerLayer: perLayer}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workloadDecl{w.name, w.why})
	}
	return m
}
