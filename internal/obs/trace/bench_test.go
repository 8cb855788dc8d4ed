package trace

import (
	"io"
	"testing"
)

// hotPaths back the tracing contract: the nil-off fast path and the
// steady-state recording path both allocate nothing. Each entry builds its
// recorder, warms the scratch buffer and returns the i-th operation.
var hotPaths = []struct {
	name string
	op   func() func(i int)
}{
	{"OffSpan", func() func(int) {
		var r *Recorder
		return func(i int) {
			r.SetPos(0, i)
			r.Span(PhaseCompute).End()
		}
	}},
	{"OffMessage", func() func(int) {
		var r *Recorder
		return func(int) {
			r.Send(1, KindHalo, 4096, 0)
			r.Recv(1, KindHalo, 4096, 0, 0, 0)
		}
	}},
	{"OnSpan", func() func(int) {
		r := NewLog(io.Discard).Recorder(3)
		r.SetPos(0, 0)
		r.Span(PhaseCompute).End()
		return func(i int) {
			r.SetPos(0, i)
			r.Span(PhaseCompute).End()
		}
	}},
	{"OnMessage", func() func(int) {
		r := NewLog(io.Discard).Recorder(3)
		r.SetPos(0, 0)
		r.Send(1, KindHalo, 4096, 1)
		return func(i int) {
			r.Send(1, KindHalo, 4096, int64(i))
			r.Recv(2, KindMig, 4096, 0, int32(i), int64(i))
		}
	}},
	{"OnWaitSpan", func() func(int) {
		r := NewLog(io.Discard).Recorder(0)
		r.WaitSpan(PhaseHaloWait, 1).EndGated(1)
		return func(i int) {
			r.WaitSpan(PhaseHaloWait, 1).EndGated(int64(i))
		}
	}},
}

func BenchmarkTrace(b *testing.B) {
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
