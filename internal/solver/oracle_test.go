package solver

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"samrpart/internal/amr"
	"samrpart/internal/geom"
	"samrpart/internal/parallel"
)

// oracleCase is one kernel configuration the differential oracle drives.
type oracleCase struct {
	name   string
	kernel Kernel
	boxes  []geom.Box
}

// oracleCases covers all three solver families (plus the first-order
// advection kernel), 2D and 3D where applicable, positive and negative
// velocities (the upwind branches differ), and boxes that are offset from
// the origin, non-cubic, and degenerate (one cell wide along an axis).
func oracleCases() []oracleCase {
	boxes2 := []geom.Box{
		geom.Box2(0, 0, 23, 17),
		geom.Box2(5, -3, 9, 12),
		geom.Box2(-4, 7, -4, 9), // one cell wide in x
		geom.Box2(2, 2, 8, 2),   // one cell wide in y
		geom.Box2(0, 0, 0, 0),   // single cell
	}
	boxes3 := []geom.Box{
		geom.Box3(0, 0, 0, 15, 11, 9),
		geom.Box3(-2, 3, 1, 5, 6, 4),
		geom.Box3(0, 0, 0, 2, 2, 2),
		geom.Box3(1, -1, 2, 9, -1, 2), // pencil-shaped: 1 cell in y and z
	}
	return []oracleCase{
		{"advection2d", NewAdvection2D(1, 0.5, 0.5, 0.5, 0.2), boxes2},
		{"advection2d-neg", NewAdvection2D(-0.8, -0.3, 0.4, 0.6, 0.2), boxes2},
		{"advection3d", NewAdvection3D(0.7, -0.4, 0.3, 0.5, 0.5, 0.5, 0.2), boxes3},
		{"muscl2d", NewMUSCLAdvection2D(1, 0.5, 0.5, 0.5, 0.2), boxes2},
		{"muscl2d-neg", NewMUSCLAdvection2D(-0.6, -1.1, 0.4, 0.4, 0.2), boxes2},
		{"muscl3d", NewMUSCLAdvection3D(0.6, -0.8, 0.5, 0.5, 0.5, 0.5, 0.2), boxes3},
		{"buckley2d", NewBuckleyLeverett(1, 0.5), boxes2},
		{"buckley2d-neg", NewBuckleyLeverett(-0.7, -0.3), boxes2},
		{"euler3d-rm", NewRichtmyerMeshkov([geom.MaxDim]float64{1, 1, 1}), boxes3},
	}
}

// oraclePatch builds a kernel-initialized patch over box with a
// deterministic perturbation so limiter/upwind branches see non-smooth
// data, halos filled by the outflow BC.
func oraclePatch(k Kernel, box geom.Box, g Grid, seed int64) *amr.Patch {
	p := amr.NewPatch(box, k.Ghost(), k.NumFields())
	k.Init(p, g)
	r := rand.New(rand.NewSource(seed))
	for f := 0; f < p.NumFields; f++ {
		fd := p.Field(f)
		for i := range fd {
			// Multiplicative noise keeps densities/energies positive and
			// Buckley saturations near [0,1].
			fd[i] *= 1 + 0.05*(r.Float64()-0.5)
		}
	}
	ApplyOutflowBC(p)
	return p
}

// stepBitExact compares one fused step against the reference on
// pre-identical inputs, cell by cell, bitwise.
func stepBitExact(t *testing.T, k Kernel, cur *amr.Patch, g Grid, dt float64) *amr.Patch {
	t.Helper()
	ref := Reference(k)
	nextF := amr.NewPatch(cur.Box, cur.Ghost, cur.NumFields)
	nextR := amr.NewPatch(cur.Box, cur.Ghost, cur.NumFields)
	k.Step(nextF, cur, g, dt)
	ref.Step(nextR, cur, g, dt)
	comparePatches(t, "Step", nextF, nextR, cur.Box)
	return nextF
}

func comparePatches(t *testing.T, phase string, got, want *amr.Patch, box geom.Box) {
	t.Helper()
	for f := 0; f < got.NumFields; f++ {
		gf, wf := got.Field(f), want.Field(f)
		for z := box.Lo[2]; z <= box.Hi[2]; z++ {
			for y := box.Lo[1]; y <= box.Hi[1]; y++ {
				for x := box.Lo[0]; x <= box.Hi[0]; x++ {
					pt := geom.Point{x, y, z}
					g := gf[offsetOf(got, pt)]
					w := wf[offsetOf(want, pt)]
					if math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("%s: field %d cell %v: fused %v (%x), reference %v (%x)",
							phase, f, pt, g, math.Float64bits(g), w, math.Float64bits(w))
					}
				}
			}
		}
	}
}

// TestKernelsBitExactVsReference is the differential oracle: for every
// kernel, box shape and step, the fused pencil path must produce
// bit-identical Step fields, MaxDT values and Flag decisions to the
// retained per-point reference implementation.
func TestKernelsBitExactVsReference(t *testing.T) {
	for _, tc := range oracleCases() {
		t.Run(tc.name, func(t *testing.T) {
			ref := Reference(tc.kernel)
			for bi, box := range tc.boxes {
				g := UniformGrid(1.0 / 24)
				cur := oraclePatch(tc.kernel, box, g, int64(1000+bi))

				dtF := tc.kernel.MaxDT(cur, g)
				dtR := ref.MaxDT(cur, g)
				if math.Float64bits(dtF) != math.Float64bits(dtR) {
					t.Fatalf("box %v: MaxDT fused %v != reference %v", box, dtF, dtR)
				}
				dt := dtF
				if math.IsInf(dt, 1) {
					dt = 1e-3
				}

				// Three steps so fused output feeds fused input (errors
				// would compound if any cell ever diverged).
				for s := 0; s < 3; s++ {
					next := stepBitExact(t, tc.kernel, cur, g, dt)
					ApplyOutflowBC(next)
					cur = next
				}

				fF := amr.NewFlagField(box)
				fR := amr.NewFlagField(box)
				tc.kernel.Flag(cur, g, fF, 0.05)
				ref.Flag(cur, g, fR, 0.05)
				if fF.Count() != fR.Count() {
					t.Fatalf("box %v: Flag count fused %d != reference %d", box, fF.Count(), fR.Count())
				}
				cur.EachInterior(func(pt geom.Point) {
					if fF.Get(pt) != fR.Get(pt) {
						t.Fatalf("box %v: Flag mismatch at %v: fused %v reference %v",
							box, pt, fF.Get(pt), fR.Get(pt))
					}
				})
			}
		})
	}
}

// TestKernelsBitExactUnderWorkerPool steps many patches concurrently on
// the worker pool at widths 1 and 4 and checks each result against the
// serial reference: the pooled pencil scratch must be race-free and the
// results bit-identical regardless of worker count.
func TestKernelsBitExactUnderWorkerPool(t *testing.T) {
	for _, tc := range oracleCases() {
		t.Run(tc.name, func(t *testing.T) {
			g := UniformGrid(1.0 / 24)
			// A patch population per worker width, all initialized
			// identically.
			const n = 8
			box := tc.boxes[0]
			ref := Reference(tc.kernel)
			want := make([]*amr.Patch, n)
			dts := make([]float64, n)
			for i := range want {
				cur := oraclePatch(tc.kernel, box, g, int64(77+i))
				dts[i] = ref.MaxDT(cur, g)
				if math.IsInf(dts[i], 1) {
					dts[i] = 1e-3
				}
				next := amr.NewPatch(box, cur.Ghost, cur.NumFields)
				ref.Step(next, cur, g, dts[i])
				want[i] = next
			}
			for _, w := range []int{1, 4} {
				got := make([]*amr.Patch, n)
				curs := make([]*amr.Patch, n)
				for i := range curs {
					curs[i] = oraclePatch(tc.kernel, box, g, int64(77+i))
					got[i] = amr.NewPatch(box, curs[i].Ghost, curs[i].NumFields)
				}
				// MaxDT under the pool: MapReduce folds serially in index
				// order, so the min is bit-exact for any width.
				dtMin := parallel.MapReduce(w, n, math.Inf(1),
					func(i int) float64 { return tc.kernel.MaxDT(curs[i], g) },
					func(acc, v float64) float64 { return math.Min(acc, v) })
				wantMin := math.Inf(1)
				for i := range want {
					wantMin = math.Min(wantMin, ref.MaxDT(curs[i], g))
				}
				if math.Float64bits(dtMin) != math.Float64bits(wantMin) {
					t.Fatalf("width %d: pooled MaxDT min %v != serial reference %v", w, dtMin, wantMin)
				}
				parallel.For(w, n, func(i int) {
					tc.kernel.Step(got[i], curs[i], g, dts[i])
				})
				for i := range got {
					comparePatches(t, fmt.Sprintf("width %d patch %d", w, i), got[i], want[i], box)
				}
			}
		})
	}
}
