package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"samrpart/internal/amr"
	"samrpart/internal/engine"
	"samrpart/internal/geom"
	"samrpart/internal/partition"
	"samrpart/internal/solver"
	"samrpart/internal/transport"
)

// The decorators below time each layer from outside: they wrap the
// interfaces the engine already takes as inputs and touch no file of the
// program. Every decorated call becomes a span (name, rank, start, end,
// parent) and feeds the per-kind totals the per-layer metrics are read from.

// spanKind names a layer boundary.
type spanKind int

const (
	spanRun spanKind = iota
	spanStep
	spanMaxDT
	spanFlag
	spanInit
	spanSend
	spanRecv
	spanCollective
	spanTryRecv
	spanPartition
	spanAdvance
	spanFlags
	spanRegridded
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"run", "solver.step", "solver.maxdt", "solver.flag", "solver.init",
	"transport.send", "transport.recv", "transport.collective", "transport.tryrecv",
	"partition.partition", "engine.advance", "engine.flags", "engine.regridded",
}

// mergeGapNS coalesces back-to-back calls of one kind (a rank stepping its
// 32 tiles in a row) into a single span, so a 20 000-iteration run keeps
// tens of spans per iteration, not hundreds. Busy time stays exact: it sums
// the calls' own durations, not the merged extent.
const mergeGapNS = 20_000

// maxSpans bounds the spans one rank keeps; totals keep counting past it and
// the trace file says how many spans were dropped.
const maxSpans = 200_000

type span struct {
	kind       spanKind
	parent     spanKind
	start, end int64 // ns since the tracer's epoch
	calls      int64
	busy       int64 // Σ of the merged calls' durations
	bytes      int64
}

type total struct{ calls, busyNS, bytes, boxesIn, boxesOut int64 }

// recorder holds one rank's spans and totals. An SPMD rank is one goroutine
// and records without locking; on amr-regrid the two workers' kernel calls
// overlap in time, so that recorder is shared and takes the mutex.
type recorder struct {
	rank    int
	epoch   time.Time
	shared  bool
	mu      sync.Mutex
	spans   []span
	dropped int64
	totals  [numSpanKinds]total
	// within is the Application span open on the control goroutine, the
	// parent of kernel spans on amr-regrid; spanRun otherwise.
	within atomic.Int32
}

// now reads the monotonic clock as ns since the tracer's epoch: one clock
// read, where time.Now would make two.
func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// add records one timed call; weight > 1 when its duration stands for that
// many calls of its kind (see sampler), 1 otherwise.
func (r *recorder) add(kind spanKind, s, e, bytes, weight int64) {
	parent := spanRun
	if r.shared {
		if kind < spanAdvance && kind != spanRun {
			parent = spanKind(r.within.Load())
		}
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	t := &r.totals[kind]
	t.calls++
	t.busyNS += (e - s) * weight
	t.bytes += bytes
	if n := len(r.spans); n > 0 && r.spans[n-1].kind == kind && s-r.spans[n-1].end < mergeGapNS {
		last := &r.spans[n-1]
		if e > last.end {
			last.end = e
		}
		last.calls += weight
		last.busy += (e - s) * weight
		last.bytes += bytes
	} else if n < maxSpans {
		r.spans = append(r.spans, span{kind: kind, parent: parent, start: s, end: e, calls: weight, busy: (e - s) * weight, bytes: bytes})
	} else {
		r.dropped++
	}
}

// tracer owns the recorders of one traced repetition.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	recs  []*recorder
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) rank(r int) *recorder {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.recs) <= r {
		rec := &recorder{rank: len(t.recs), epoch: t.epoch}
		rec.within.Store(int32(spanRun))
		t.recs = append(t.recs, rec)
	}
	return t.recs[r]
}

// sum adds one field of the per-kind totals over ranks.
func (t *tracer) sum(kind spanKind, field func(total) int64) float64 {
	var n int64
	for _, r := range t.recs {
		n += field(r.totals[kind])
	}
	return float64(n)
}

func (t *tracer) calls(kinds ...spanKind) float64 {
	v := 0.0
	for _, k := range kinds {
		v += t.sum(k, func(x total) int64 { return x.calls })
	}
	return v
}

func (t *tracer) busyS(kinds ...spanKind) float64 {
	v := 0.0
	for _, k := range kinds {
		v += t.sum(k, func(x total) int64 { return x.busyNS })
	}
	return v / 1e9
}

// childrenFit reports whether, on every rank, the spans whose parent is the
// run span lie inside it and their busy time does not exceed it — the
// reconciliation the README's acceptance check asks of a traced run.
func (t *tracer) childrenFit() bool {
	for _, r := range t.recs {
		var run *span
		for i := range r.spans {
			if r.spans[i].kind == spanRun {
				run = &r.spans[i]
			}
		}
		if run == nil {
			return false
		}
		var busy int64
		for _, s := range r.spans {
			if s.kind == spanRun || s.parent != spanRun {
				continue
			}
			if s.start < run.start || s.end > run.end {
				return false
			}
			busy += s.busy
		}
		if r.dropped == 0 && busy > run.end-run.start {
			return false
		}
	}
	return true
}

// writeJSONL writes one line per span: a header line first, then spans in
// start order per rank.
func (t *tracer) writeJSONL(path, workload string, seed int64, iters int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	var dropped int64
	for _, r := range t.recs {
		dropped += r.dropped
	}
	err = enc.Encode(map[string]any{
		"workload": workload, "seed": seed, "iters": iters, "ranks": len(t.recs),
		"dropped_spans": dropped, "merge_gap_ns": mergeGapNS,
		"note": "start/end in ns since the traced run began; busy_ns sums the merged calls' own durations",
	})
	type line struct {
		Name   string `json:"name"`
		Rank   int    `json:"rank"`
		Start  int64  `json:"start"`
		End    int64  `json:"end"`
		Parent string `json:"parent,omitempty"`
		Calls  int64  `json:"calls"`
		Busy   int64  `json:"busy_ns"`
		Bytes  int64  `json:"bytes,omitempty"`
	}
	for _, r := range t.recs {
		// A shared recorder files an Application span after the kernel spans
		// it contains; put every rank's spans in start order.
		sort.SliceStable(r.spans, func(i, j int) bool { return r.spans[i].start < r.spans[j].start })
		for _, s := range r.spans {
			if err != nil {
				break
			}
			l := line{Name: spanNames[s.kind], Rank: r.rank, Start: s.start, End: s.end, Calls: s.calls, Busy: s.busy, Bytes: s.bytes}
			if s.kind != spanRun {
				l.Parent = spanNames[s.parent]
			}
			err = enc.Encode(l)
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// sampler decides which calls of one kind a kernel decorator times. Two
// clock reads cost about 70 ns, and halo-latency makes 64 sub-microsecond
// kernel calls per rank and step: timing them all slows that workload by a
// tenth. So while nine in ten of a kind's timed calls are shorter than
// sampleBelowNS (a share, not a mean: one call that absorbs a GC pause must
// not switch sampling off), only one call in sampleStride is timed, and it
// stands for the untimed calls since the previous timed one: counts stay
// exact, busy time becomes an estimate from every seventh call. The stride
// is coprime to the tile counts, so successive steps sample different
// tiles. Kinds whose calls are long (every other workload) are timed in
// full.
type sampler struct {
	seen, timed, short, lastTimed int64
}

const (
	sampleBelowNS = 2000
	sampleStride  = 7
)

// take reports whether to time this call (weight > 0), and how many calls
// it then stands for.
func (s *sampler) take() (weight int64) {
	s.seen++
	if s.timed >= 64 && s.short*10 >= s.timed*9 && s.seen%sampleStride != 0 {
		return 0
	}
	weight = s.seen - s.lastTimed
	s.lastTimed = s.seen
	return weight
}

func (s *sampler) took(ns int64) {
	s.timed++
	if ns < sampleBelowNS {
		s.short++
	}
}

// timedKernel times solver.Kernel calls.
type timedKernel struct {
	inner       solver.Kernel
	rec         *recorder
	step, maxDT sampler
}

func (k *timedKernel) Name() string          { return k.inner.Name() }
func (k *timedKernel) Rank() int             { return k.inner.Rank() }
func (k *timedKernel) NumFields() int        { return k.inner.NumFields() }
func (k *timedKernel) Ghost() int            { return k.inner.Ghost() }
func (k *timedKernel) FlopsPerCell() float64 { return k.inner.FlopsPerCell() }

// call times fn as one call of kind — through the kind's sampler, unless
// the recorder is shared: a shared kernel is called from several workers at
// once, its calls are long, and the sampler's state is not synchronised.
func (k *timedKernel) call(kind spanKind, s *sampler, fn func()) {
	weight := int64(1)
	if s != nil && !k.rec.shared {
		if weight = s.take(); weight == 0 {
			k.rec.totals[kind].calls++
			fn()
			return
		}
	}
	t0 := k.rec.now()
	fn()
	t1 := k.rec.now()
	if s != nil && !k.rec.shared {
		s.took(t1 - t0)
	}
	k.rec.add(kind, t0, t1, 0, weight)
}

func (k *timedKernel) Init(p *amr.Patch, g solver.Grid) {
	k.call(spanInit, nil, func() { k.inner.Init(p, g) })
}

func (k *timedKernel) MaxDT(p *amr.Patch, g solver.Grid) (dt float64) {
	k.call(spanMaxDT, &k.maxDT, func() { dt = k.inner.MaxDT(p, g) })
	return dt
}

func (k *timedKernel) Step(next, cur *amr.Patch, g solver.Grid, dt float64) {
	k.call(spanStep, &k.step, func() { k.inner.Step(next, cur, g, dt) })
}

func (k *timedKernel) Flag(p *amr.Patch, g solver.Grid, f *amr.FlagField, threshold float64) {
	k.call(spanFlag, nil, func() { k.inner.Flag(p, g, f, threshold) })
}

// fullEndpoint is what both built-in transports implement and what the
// decorator must forward so the engine takes the same paths as undecorated:
// deadline-bounded receives (required by the FT runner) and the
// non-blocking poll (rejoin announcements).
type fullEndpoint interface {
	transport.TimedEndpoint
	transport.Poller
}

// timedEndpoint times transport.Endpoint calls. Collectives are forwarded
// whole: the inner endpoint's own Send/Recv under them are not decorated,
// so no span is counted twice.
type timedEndpoint struct {
	inner fullEndpoint
	rec   *recorder
}

var _ fullEndpoint = (*timedEndpoint)(nil)

func (e *timedEndpoint) Rank() int                   { return e.inner.Rank() }
func (e *timedEndpoint) Size() int                   { return e.inner.Size() }
func (e *timedEndpoint) Close() error                { return e.inner.Close() }
func (e *timedEndpoint) SetDeadline(d time.Duration) { e.inner.SetDeadline(d) }

func (e *timedEndpoint) Send(to int, tag string, payload []byte) error {
	t0 := e.rec.now()
	err := e.inner.Send(to, tag, payload)
	e.rec.add(spanSend, t0, e.rec.now(), int64(len(payload)), 1)
	return err
}

func (e *timedEndpoint) Recv(from int, tag string) ([]byte, error) {
	t0 := e.rec.now()
	p, err := e.inner.Recv(from, tag)
	e.rec.add(spanRecv, t0, e.rec.now(), int64(len(p)), 1)
	return p, err
}

func (e *timedEndpoint) RecvTimeout(from int, tag string, d time.Duration) ([]byte, error) {
	t0 := e.rec.now()
	p, err := e.inner.RecvTimeout(from, tag, d)
	e.rec.add(spanRecv, t0, e.rec.now(), int64(len(p)), 1)
	return p, err
}

func (e *timedEndpoint) TryRecv(from int, tag string) ([]byte, bool, error) {
	t0 := e.rec.now()
	p, ok, err := e.inner.TryRecv(from, tag)
	e.rec.add(spanTryRecv, t0, e.rec.now(), int64(len(p)), 1)
	return p, ok, err
}

func (e *timedEndpoint) Barrier() error {
	t0 := e.rec.now()
	err := e.inner.Barrier()
	e.rec.add(spanCollective, t0, e.rec.now(), 0, 1)
	return err
}

func (e *timedEndpoint) AllGather(payload []byte) ([][]byte, error) {
	t0 := e.rec.now()
	out, err := e.inner.AllGather(payload)
	e.rec.add(spanCollective, t0, e.rec.now(), int64(len(payload)), 1)
	return out, err
}

func (e *timedEndpoint) Bcast(root int, payload []byte) ([]byte, error) {
	t0 := e.rec.now()
	out, err := e.inner.Bcast(root, payload)
	e.rec.add(spanCollective, t0, e.rec.now(), int64(len(out)), 1)
	return out, err
}

// timedPartitioner times partition.Partitioner calls. It hides the concrete
// type, which is why no workload uses partition.Hierarchical: the engine
// picks the group-local stage 2 by a concrete-type assertion.
type timedPartitioner struct {
	inner partition.Partitioner
	rec   *recorder
}

func (p *timedPartitioner) Name() string { return p.inner.Name() }

func (p *timedPartitioner) Partition(boxes geom.BoxList, caps []float64, work partition.WorkFunc) (*partition.Assignment, error) {
	t0 := p.rec.now()
	a, err := p.inner.Partition(boxes, caps, work)
	p.rec.add(spanPartition, t0, p.rec.now(), 0, 1)
	p.rec.mu.Lock()
	t := &p.rec.totals[spanPartition]
	t.boxesIn += int64(len(boxes))
	if a != nil {
		t.boxesOut += int64(len(a.Boxes))
	}
	p.rec.mu.Unlock()
	return a, err
}

// timedApp times engine.Application calls and forwards WorkerConfigurable,
// so engine.New still hands the worker count to SimApp.
type timedApp struct {
	inner *engine.SimApp
	rec   *recorder
}

var _ engine.WorkerConfigurable = (*timedApp)(nil)

func (a *timedApp) Name() string          { return a.inner.Name() }
func (a *timedApp) FlopsPerCell() float64 { return a.inner.FlopsPerCell() }
func (a *timedApp) BytesPerCell() float64 { return a.inner.BytesPerCell() }
func (a *timedApp) SetWorkers(n int)      { a.inner.SetWorkers(n) }

func (a *timedApp) span(kind spanKind, fn func() error) error {
	a.rec.within.Store(int32(kind))
	t0 := a.rec.now()
	err := fn()
	t1 := a.rec.now()
	a.rec.within.Store(int32(spanRun))
	a.rec.add(kind, t0, t1, 0, 1)
	return err
}

func (a *timedApp) Flags(h *amr.Hierarchy, iter int) (flags []*amr.FlagField, err error) {
	err = a.span(spanFlags, func() error {
		flags, err = a.inner.Flags(h, iter)
		return err
	})
	return flags, err
}

func (a *timedApp) Advance(h *amr.Hierarchy, iter int) error {
	return a.span(spanAdvance, func() error { return a.inner.Advance(h, iter) })
}

func (a *timedApp) Regridded(h *amr.Hierarchy) error {
	return a.span(spanRegridded, func() error { return a.inner.Regridded(h) })
}
