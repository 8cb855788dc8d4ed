package trace

import (
	"io"
	"testing"
)

// These benchmarks back the tracing contract: the nil-off fast path and the
// steady-state recording path both allocate nothing. CI asserts 0 allocs/op
// on every BenchmarkTrace* result.

func BenchmarkTraceOffSpan(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.SetPos(0, i)
		r.Span(PhaseCompute).End()
	}
}

func BenchmarkTraceOffMessage(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Send(1, KindHalo, 4096, 0)
		r.Recv(1, KindHalo, 4096, 0, 0, 0)
	}
}

func BenchmarkTraceOnSpan(b *testing.B) {
	l := NewLog(io.Discard)
	r := l.Recorder(3)
	r.SetPos(0, 0)
	// Warm the scratch buffer so steady state is measured.
	r.Span(PhaseCompute).End()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.SetPos(0, i)
		r.Span(PhaseCompute).End()
	}
}

func BenchmarkTraceOnMessage(b *testing.B) {
	l := NewLog(io.Discard)
	r := l.Recorder(3)
	r.SetPos(0, 0)
	r.Send(1, KindHalo, 4096, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Send(1, KindHalo, 4096, int64(i))
		r.Recv(2, KindMig, 4096, 0, int32(i), int64(i))
	}
}

func BenchmarkTraceOnWaitSpan(b *testing.B) {
	l := NewLog(io.Discard)
	r := l.Recorder(0)
	r.WaitSpan(PhaseHaloWait, 1).EndGated(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.WaitSpan(PhaseHaloWait, 1).EndGated(int64(i))
	}
}
