package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measurement is the result of one run of one workload.
type measurement struct {
	Iters int
	// Hash is the serial reference's, which every repetition had to match.
	Hash              string
	Attempted, Failed int
	// Failures describes each failed repetition.
	Failures []string
	Metrics  map[string]metricValue
	// Machine is set by a traced run (the probes describe the box).
	Machine *machineInfo
}

// sample is one timed repetition.
type sample struct {
	out         *outcome
	cpuS, alloc float64
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// timedRep runs one repetition between two readings of process CPU time and
// allocated bytes. The collection before it gives every repetition the same
// starting heap.
func timedRep(w *workload, o runOpts) (sample, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	out, err := w.run(o)
	c1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	return sample{out: out, cpuS: c1 - c0, alloc: float64(m1.TotalAlloc - m0.TotalAlloc)}, err
}

// twoPoint is the per-iteration cost by the two-point rule: the N-iteration
// run minus the 1-iteration run (which holds everything paid once per run),
// over the N−1 iterations between them.
func twoPoint(vN, v1 float64, n int) float64 { return (vN - v1) / float64(n-1) }

// measureOpts selects one run of one workload.
type measureOpts struct {
	seed    int64
	seconds float64
	// traced adds a decorated repetition to every round and the per-layer
	// metrics to the result.
	traced bool
	// iters is N, the length of the N-iteration run (at least 2).
	iters int
	// minRounds rounds run even if `seconds` have already passed.
	minRounds int
	// root is the checkout root: scratch and trace files go under it.
	root string
}

// scaledIters is a workload's N at the given scale.
func scaledIters(w *workload, scale float64) int {
	return max(2, int(math.Round(float64(w.iters)*scale)))
}

// measure runs one workload the way the pipeline asks: serial references
// first, one discarded warm-up of each run length, then rounds of a
// 1-iteration and an N-iteration repetition (plus a decorated N-iteration
// one when traced) until `seconds` have passed. Every repetition is checked
// against the reference hash and the first repetition's exact counters.
func measure(w *workload, mo measureOpts) (*measurement, error) {
	seed, traced, n := mo.seed, mo.traced, mo.iters
	dir := filepath.Join(mo.root, ".bench_build", "scratch", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	m := &measurement{Iters: n, Metrics: map[string]metricValue{}}
	opts := func(iters int) runOpts { return runOpts{seed: seed, iters: iters, dir: dir} }

	ref1, err := w.run(runOpts{seed: seed, iters: 1, serial: true, dir: dir})
	if err != nil {
		return nil, fmt.Errorf("serial reference (1 iteration): %w", err)
	}
	refN, err := w.run(runOpts{seed: seed, iters: n, serial: true, dir: dir})
	if err != nil {
		return nil, fmt.Errorf("serial reference (%d iterations): %w", n, err)
	}
	m.Hash = fmt.Sprintf("%016x", refN.hash)
	for _, it := range []int{1, n} {
		if _, err := w.run(opts(it)); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}

	r := &rounds{n: n, ref1: ref1, refN: refN}
	// check counts one repetition and files it as failed if it errored,
	// missed the reference hash or changed an exact counter.
	check := func(s sample, err error, ref *outcome, first **outcome, what string) bool {
		m.Attempted++
		switch {
		case err != nil:
			m.Failures = append(m.Failures, fmt.Sprintf("%s: %v", what, err))
		case s.out.hash != ref.hash:
			m.Failures = append(m.Failures, fmt.Sprintf("%s: hash %016x, serial reference %016x", what, s.out.hash, ref.hash))
		case *first != nil && s.out.c != (*first).c:
			m.Failures = append(m.Failures, fmt.Sprintf("%s: exact counters changed: %+v, first repetition %+v", what, s.out.c, (*first).c))
		default:
			if *first == nil {
				*first = s.out
			}
			return true
		}
		m.Failed++
		return false
	}
	untraced := func() {
		s, err := timedRep(w, opts(n))
		if check(s, err, refN, &r.firstN, "N-iteration run") {
			r.wallN, r.cpuN, r.allocN = append(r.wallN, s.out.wallS), append(r.cpuN, s.cpuS), append(r.allocN, s.alloc)
		}
	}
	decorated := func() {
		o := opts(n)
		o.tr = newTracer()
		s, err := timedRep(w, o)
		if check(s, err, refN, &r.firstN, "traced run") {
			r.wallT, r.tracers = append(r.wallT, s.out.wallS), append(r.tracers, o.tr)
		}
	}
	start := time.Now()
	for rep := 0; rep < mo.minRounds || time.Since(start).Seconds() < mo.seconds; rep++ {
		s, err := timedRep(w, opts(1))
		if check(s, err, ref1, &r.first1, "1-iteration run") {
			r.wall1, r.cpu1, r.alloc1 = append(r.wall1, s.out.wallS), append(r.cpu1, s.cpuS), append(r.alloc1, s.alloc)
		}
		// Alternate which goes first, so that whatever the position in the
		// round is worth cancels out of the tracing overhead.
		switch {
		case !traced:
			untraced()
		case rep%2 == 0:
			untraced()
			decorated()
		default:
			decorated()
			untraced()
		}
	}
	if len(r.wall1) == 0 || len(r.wallN) == 0 || (traced && len(r.wallT) == 0) {
		return m, fmt.Errorf("no repetition of %s succeeded: %v", w.name, m.Failures)
	}

	m.endToEnd(r)
	if !traced {
		return m, nil
	}
	m.traced(r)
	pm, mi, err := probes(dir)
	if err != nil {
		return m, err
	}
	m.Machine = &mi
	for name, v := range pm {
		m.set(name, v)
	}
	traceDir := filepath.Join(mo.root, "bench", "out")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return m, err
	}
	last := r.tracers[len(r.tracers)-1]
	return m, last.writeJSONL(filepath.Join(traceDir, "trace-"+w.name+".jsonl"), w.name, seed, n)
}

// rounds is what the timed rounds of one run gathered.
type rounds struct {
	n int // iterations of the N-iteration run
	// ref* are the serial references, first* the first correct parallel
	// repetition of each length (the exact counters come from these).
	ref1, refN, first1, firstN *outcome
	wall1, cpu1, alloc1        []float64 // 1-iteration repetitions
	wallN, cpuN, allocN        []float64 // N-iteration repetitions, undecorated
	wallT                      []float64 // N-iteration repetitions, decorated
	tracers                    []*tracer
}

func (r *rounds) setupS() float64   { return median(r.wall1) }
func (r *rounds) sPerIter() float64 { return twoPoint(median(r.wallN), r.setupS(), r.n) }

// endToEnd sets the end-to-end metrics.
func (m *measurement) endToEnd(r *rounds) {
	m.set("setup_s", r.setupS())
	m.set("s_per_iter", r.sPerIter())
	m.set("mcells_per_s", twoPoint(r.firstN.cellUpdates, r.first1.cellUpdates, r.n)/r.sPerIter()/1e6)
	m.set("cpu_s_per_iter", twoPoint(median(r.cpuN), median(r.cpu1), r.n))
	m.set("alloc_B_per_iter", twoPoint(median(r.allocN), median(r.alloc1), r.n))
}

// traced sets the per-layer metrics a traced run measures itself: source T
// from the decorated repetitions (median over them) and source C from the
// exact counters. The probes (source P) are added by the caller.
func (m *measurement) traced(r *rounds) {
	// T sets a metric to the median over the decorated repetitions of f.
	T := func(name string, f func(t *tracer) float64) {
		v := make([]float64, len(r.tracers))
		for i, t := range r.tracers {
			v[i] = f(t)
		}
		m.set(name, median(v))
	}
	calls := func(kinds ...spanKind) func(*tracer) float64 {
		return func(t *tracer) float64 { return t.calls(kinds...) }
	}
	busy := func(kinds ...spanKind) func(*tracer) float64 {
		return func(t *tracer) float64 { return t.busyS(kinds...) }
	}
	T("solver.step_calls", calls(spanStep))
	T("solver.step_busy_s", busy(spanStep))
	T("solver.maxdt_busy_s", busy(spanMaxDT))
	T("solver.flag_busy_s", busy(spanFlag))
	T("solver.ns_per_cell", func(t *tracer) float64 { return t.busyS(spanStep) / r.firstN.cellUpdates * 1e9 })
	T("transport.send_calls", calls(spanSend))
	T("transport.send_B", func(t *tracer) float64 { return t.sum(spanSend, func(x total) int64 { return x.bytes }) })
	T("transport.send_busy_s", busy(spanSend))
	T("transport.recv_calls", calls(spanRecv))
	T("transport.recv_wait_s", busy(spanRecv))
	T("transport.collective_calls", calls(spanCollective))
	T("transport.collective_wait_s", busy(spanCollective))
	T("transport.tryrecv_calls", calls(spanTryRecv))
	T("partition.calls", calls(spanPartition))
	T("partition.busy_s", busy(spanPartition))
	T("partition.boxes_in", func(t *tracer) float64 { return t.sum(spanPartition, func(x total) int64 { return x.boxesIn }) })
	T("partition.boxes_out", func(t *tracer) float64 { return t.sum(spanPartition, func(x total) int64 { return x.boxesOut }) })
	T("engine.advance_busy_s", busy(spanAdvance))
	T("engine.flags_busy_s", busy(spanFlags))
	T("engine.regridded_busy_s", busy(spanRegridded))
	// Self time of the run spans: what is left of Σ rank wall once every
	// child span is taken out. On amr-regrid the kernel spans are
	// grandchildren (inside the Application spans) and are not subtracted
	// twice.
	app := []spanKind{spanAdvance, spanFlags, spanRegridded}
	T("engine.self_s", func(t *tracer) float64 {
		children := t.busyS(spanSend, spanRecv, spanCollective, spanTryRecv, spanPartition) + t.busyS(app...)
		if t.calls(app...) == 0 {
			children += t.busyS(spanStep, spanMaxDT, spanFlag, spanInit)
		}
		return t.busyS(spanRun) - children
	})
	T("engine.control_self_s", func(t *tracer) float64 {
		if t.calls(app...) == 0 {
			return 0
		}
		return t.busyS(spanRun) - t.busyS(app...)
	})
	fit := 0.0
	for _, t := range r.tracers {
		if t.childrenFit() {
			fit++
		}
	}
	m.set("bench.spans_reconcile", fit/float64(len(r.tracers)))
	m.set("bench.trace_overhead_pct", (twoPoint(median(r.wallT), r.setupS(), r.n)/r.sPerIter()-1)*100)

	c, c1 := r.firstN.c, r.first1.c
	perIter := func(vN, v1 int64) float64 { return twoPoint(float64(vN), float64(v1), r.n) }
	m.set("engine.msgs_per_iter", perIter(c.Msgs, c1.Msgs))
	m.set("engine.wire_B_per_iter", perIter(c.WireB, c1.WireB))
	m.set("engine.migrated_B_per_iter", perIter(c.MigratedB, c1.MigratedB))
	m.set("engine.retained_B_per_iter", perIter(c.RetainedB, c1.RetainedB))
	m.set("engine.repartitions", float64(c.Repartitions))
	share := 0.0
	if steps := c.InteriorSteps + c.BoundarySteps; steps > 0 {
		share = float64(c.InteriorSteps) / float64(steps)
	}
	m.set("engine.interior_step_share", share)
	m.set("engine.checkpoints", float64(c.Checkpoints))
	m.set("engine.speedup_vs_serial", twoPoint(r.refN.wallS, r.ref1.wallS, r.n)/r.sPerIter())
	m.set("engine.virt_exec_s", r.firstN.virtExecS)
	m.set("partition.max_imbalance_pct", r.firstN.imbalancePct)
	m.set("checkpoint.shards_written", float64(c.Checkpoints))
	// Pruned shards are gone from the directory; every shard of this
	// fault-free, never-repartitioned run has the size of those left.
	written := 0.0
	if c.CkptShards > 0 {
		written = float64(c.CkptB) / float64(c.CkptShards) * float64(c.Checkpoints)
	}
	m.set("checkpoint.B_written", written)
	m.set("monitor.senses", float64(c.Senses))
	m.set("monitor.sense_failures", float64(c.SenseFailures))
}

// only returns the metrics the given declarations name: the pipeline wants
// the end-to-end set from an untraced run and the per-layer set from a
// traced one, nothing else.
func (m *measurement) only(defs []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		if v, ok := m.Metrics[d.Name]; ok {
			out[d.Name] = v
		}
	}
	return out
}

func (m *measurement) set(name string, v float64) {
	m.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
}

func unitOf(name string) string {
	for _, d := range endToEnd {
		if d.Name == name {
			return d.Unit
		}
	}
	for _, d := range perLayer {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}
