package solver

import (
	"testing"
	"time"

	"samrpart/internal/amr"
	"samrpart/internal/geom"
)

// advanceCase is one kernel on the single patch the Advance benchmarks step
// it on.
type advanceCase struct {
	name   string
	kernel Kernel
	box    geom.Box
	h      float64
}

// advance2D are the 2D kernels on a 256² patch (65536 cell updates per
// step), advance3D the 3D kernels on a 32³ patch (32768).
func advance2D() []advanceCase {
	box, h := geom.Box2(0, 0, 255, 255), 1.0/256
	return []advanceCase{
		{"advection", NewAdvection2D(1, 0.5, 0.5, 0.5, 0.1), box, h},
		{"muscl-advection", NewMUSCLAdvection2D(1, 0.5, 0.5, 0.5, 0.1), box, h},
		{"buckley-leverett", NewBuckleyLeverett(1, 0.5), box, h},
	}
}

func advance3D() []advanceCase {
	box, h := geom.Box3(0, 0, 0, 31, 31, 31), 1.0/32
	return []advanceCase{
		{"euler3d-rm", NewRichtmyerMeshkov([geom.MaxDim]float64{1, 1, 1}), box, h},
		{"advection", NewAdvection3D(0.7, -0.4, 0.3, 0.5, 0.5, 0.5, 0.1), box, h},
		{"muscl-advection", NewMUSCLAdvection3D(0.6, -0.8, 0.5, 0.5, 0.5, 0.5, 0.1), box, h},
	}
}

// variants are the two paths every case runs: the fused pencil sweep and the
// retained per-point reference. They are bit-identical
// (TestKernelsBitExactVsReference), so their time ratio is pure kernel
// speedup.
var variants = []struct {
	name string
	of   func(Kernel) Kernel
}{
	{"fused", func(k Kernel) Kernel { return k }},
	{"ref", Reference},
}

// stepper initializes the case's patch and returns one steady-state Step of
// kern on it, the scratch pools already warm.
func (c advanceCase) stepper(kern Kernel) func() {
	g := UniformGrid(c.h)
	cur := amr.NewPatch(c.box, c.kernel.Ghost(), c.kernel.NumFields())
	next := amr.NewPatch(c.box, c.kernel.Ghost(), c.kernel.NumFields())
	c.kernel.Init(cur, g)
	ApplyOutflowBC(cur)
	dt := c.kernel.MaxDT(cur, g)
	step := func() { kern.Step(next, cur, g, dt) }
	step()
	return step
}

// maxDTer initializes the case's patch and returns one MaxDT of kern on it,
// its result kept in dtSink so the call cannot be dropped.
func (c advanceCase) maxDTer(kern Kernel) func() {
	g := UniformGrid(c.h)
	cur := amr.NewPatch(c.box, c.kernel.Ghost(), c.kernel.NumFields())
	c.kernel.Init(cur, g)
	return func() { dtSink = kern.MaxDT(cur, g) }
}

var dtSink float64

func benchAdvance(b *testing.B, cases []advanceCase) {
	for _, c := range cases {
		for _, v := range variants {
			b.Run(c.name+"/"+v.name, func(b *testing.B) {
				step := c.stepper(v.of(c.kernel))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					step()
				}
				b.StopTimer()
				cells := float64(c.box.Cells()) * float64(b.N)
				b.ReportMetric(cells/b.Elapsed().Seconds(), "cells/s")
			})
		}
	}
}

// BenchmarkAdvance2D and BenchmarkAdvance3D are the developer benchmark
// EXPERIMENTS.md's kernel table is regenerated from:
//
//	go test ./internal/solver -run '^$' -bench Advance
func BenchmarkAdvance2D(b *testing.B) { benchAdvance(b, advance2D()) }
func BenchmarkAdvance3D(b *testing.B) { benchAdvance(b, advance3D()) }

// BenchmarkEulerMaxDT times the Euler CFL sweep on the 32³ RM patch, fused
// and reference.
func BenchmarkEulerMaxDT(b *testing.B) {
	c := advance3D()[0]
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			maxDT := c.maxDTer(v.of(c.kernel))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				maxDT()
			}
		})
	}
}

// TestAdvanceAllocatesNothing holds every kernel's steady-state Step, fused
// and reference, to zero allocations.
func TestAdvanceAllocatesNothing(t *testing.T) {
	if race {
		t.Skip("sync.Pool drops items on purpose under the race detector")
	}
	for _, c := range append(advance2D(), advance3D()...) {
		for _, v := range variants {
			if allocs := testing.AllocsPerRun(5, c.stepper(v.of(c.kernel))); allocs != 0 {
				t.Errorf("%dD %s/%s: Step allocates %.1f times per call", c.kernel.Rank(), c.name, v.name, allocs)
			}
		}
	}
}

// TestFusedEulerTenTimesAsFastAsReference is the kernel's headline
// guarantee, hardware-independent because both sides run in this process:
// on the 32³ Richtmyer–Meshkov patch the fused Step takes at most a tenth of
// the reference's time (measured 14–17×). Each side is the minimum over
// interleaved repetitions, so a burst of noise has to hit every fused
// repetition to fail the test.
func TestFusedEulerTenTimesAsFastAsReference(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	c := advance3D()[0]
	fusedMin, refMin := minOf(7, c.stepper(c.kernel), c.stepper(Reference(c.kernel)))
	if speedup := refMin.Seconds() / fusedMin.Seconds(); speedup < 10 {
		t.Errorf("fused euler3d-rm Step %v, reference %v: %.2fx, want >= 10x", fusedMin, refMin, speedup)
	}
}

// TestFusedEulerMaxDTThreeTimesAsFastAsReference holds the fused CFL sweep
// to its lean decode on the same patch: at most a third of maxDTRef's time
// (measured ~4×; a per-cell call into decodeVals drops it to ~1.5×).
func TestFusedEulerMaxDTThreeTimesAsFastAsReference(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	c := advance3D()[0]
	fusedMin, refMin := minOf(7, c.maxDTer(c.kernel), c.maxDTer(Reference(c.kernel)))
	if speedup := refMin.Seconds() / fusedMin.Seconds(); speedup < 3 {
		t.Errorf("fused euler3d-rm MaxDT %v, reference %v: %.2fx, want >= 3x", fusedMin, refMin, speedup)
	}
}

// minOf times a and b alternately, reps times each, and returns each one's
// fastest run.
func minOf(reps int, a, b func()) (aMin, bMin time.Duration) {
	timed := func(f func()) time.Duration {
		t0 := time.Now()
		f()
		return time.Since(t0)
	}
	aMin, bMin = timed(a), timed(b)
	for i := 1; i < reps; i++ {
		aMin, bMin = min(aMin, timed(a)), min(bMin, timed(b))
	}
	return aMin, bMin
}
