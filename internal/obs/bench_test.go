package obs

import (
	"io"
	"testing"

	"samrpart/internal/obs/trace"
)

// hotPaths back the zero-allocation claim for instrumented hot paths. Each
// entry builds its handle, warms it and returns the i-th operation.
var hotPaths = []struct {
	name string
	op   func() func(i int)
}{
	{"CounterAdd", func() func(int) {
		c := newRegistry().Counter("samr_bench_total", "b", Label{"rank", "0"})
		return func(int) { c.Add(1) }
	}},
	{"HistogramObserve", func() func(int) {
		h := newRegistry().Histogram("samr_bench_seconds", "b", DurationBuckets())
		return func(int) { h.Observe(3.5e-4) }
	}},
	{"SpanEnabled", func() func(int) {
		rec := New(Config{Seed: 1}).Recorder(0)
		return func(i int) {
			rec.SetPos(0, i)
			rec.Span(trace.PhaseCompute).End()
		}
	}},
	{"SpanDisabled", func() func(int) {
		var rt *Runtime
		rec := rt.Recorder(0)
		return func(i int) {
			rec.SetPos(0, i)
			rec.Span(trace.PhaseCompute).End()
		}
	}},
	// The full spine: one End feeding the histogram and writing the run-log
	// record.
	{"SpanLogged", func() func(int) {
		rec := New(Config{Seed: 1, Trace: trace.NewLog(io.Discard)}).Recorder(3)
		rec.Span(trace.PhaseMigrate).EndBytes(1 << 20)
		return func(i int) {
			rec.SetPos(0, i)
			rec.Span(trace.PhaseMigrate).EndBytes(4096)
		}
	}},
}

func BenchmarkObs(b *testing.B) {
	for _, hp := range hotPaths {
		b.Run(hp.name, func(b *testing.B) {
			op := hp.op()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op(i)
			}
		})
	}
}

func TestHotPathsAllocateNothing(t *testing.T) {
	for _, hp := range hotPaths {
		op, i := hp.op(), 0
		if allocs := testing.AllocsPerRun(1000, func() { op(i); i++ }); allocs != 0 {
			t.Errorf("%s allocates %.1f times per call", hp.name, allocs)
		}
	}
}
