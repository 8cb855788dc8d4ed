package obs

import (
	"io"
	"testing"

	"samrpart/internal/obs/trace"
)

// These benchmarks back the zero-allocation claim for instrumented hot
// paths; CI asserts 0 allocs/op on every BenchmarkObs* result.

func BenchmarkObsCounterAdd(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("samr_bench_total", "b", Label{"rank", "0"})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkObsHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("samr_bench_seconds", "b", DurationBuckets())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(3.5e-4)
	}
}

func BenchmarkObsSpanEnabled(b *testing.B) {
	rec := New(Config{Seed: 1}).Recorder(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.SetPos(0, i)
		rec.Span(trace.PhaseCompute).End()
	}
}

func BenchmarkObsSpanDisabled(b *testing.B) {
	var rt *Runtime
	rec := rt.Recorder(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.SetPos(0, i)
		rec.Span(trace.PhaseCompute).End()
	}
}

// BenchmarkObsSpanLogged is the full spine: one End feeding the histogram
// and writing the run-log record.
func BenchmarkObsSpanLogged(b *testing.B) {
	rec := New(Config{Seed: 1, Trace: trace.NewLog(io.Discard)}).Recorder(3)
	// Warm the scratch buffer so steady state is measured.
	rec.Span(trace.PhaseMigrate).EndBytes(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.SetPos(0, i)
		rec.Span(trace.PhaseMigrate).EndBytes(4096)
	}
}
