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
		{"euler3d-adversarial", adversarialEuler{NewRichtmyerMeshkov([geom.MaxDim]float64{1, 1, 1})}, []geom.Box{
			geom.Box3(-2, 1, 0, 9, 6, 5),
			geom.Box3(2, 0, -1, 2, 5, 3), // one cell wide in x
			geom.Box3(0, 4, 0, 6, 4, 3),  // one cell wide in y
			geom.Box3(0, 0, 7, 5, 3, 7),  // one cell wide in z
			geom.Box3(3, 3, 3, 3, 3, 3),  // single cell
		}},
	}
}

// adversarialEuler is the Euler kernel started from states that the RM
// initial condition never reaches (its v and w are 0 and it stays off both
// floors), so that a fused record which skipped a clamp, or stood a raw field
// in for a decoded product, fails the oracle.
type adversarialEuler struct{ *Euler3D }

func (a adversarialEuler) Init(p *amr.Patch, g Grid) {
	fillAdversarialEuler(p, rand.New(rand.NewSource(int64(p.Box.Lo[0]+31*p.Box.Lo[1]+961*p.Box.Lo[2]))))
}

// fillAdversarialEuler fills every cell of p, halo included, with
// adversarialCell values.
func fillAdversarialEuler(p *amr.Patch, r *rand.Rand) {
	for off := range p.Field(qRho) {
		for q, v := range adversarialCell(r) {
			p.Field(q)[off] = v
		}
	}
}

// adversarialCell draws one cell's conserved values: density below the
// 1e-12 floor (zero and negative included) in half the cells, energy below
// the kinetic energy (so the pressure floor applies) in a third, and each
// momentum +0, -0, or non-zero of either sign.
func adversarialCell(r *rand.Rand) [qN]float64 {
	var c [qN]float64
	switch r.Intn(4) {
	case 0:
		c[qRho] = 1e-12 * r.Float64()
	case 1:
		c[qRho] = -r.Float64()
	default:
		c[qRho] = 0.2 + 3*r.Float64()
	}
	for q := qMomX; q <= qMomZ; q++ {
		switch r.Intn(4) {
		case 0:
			c[q] = math.Copysign(0, float64(r.Intn(2))-0.5)
		case 1:
			c[q] = -0.01 - 2*r.Float64()
		default:
			c[q] = 0.01 + 2*r.Float64()
		}
	}
	rho := max(c[qRho], 1e-12)
	kin := 0.5 * (c[qMomX]*c[qMomX] + c[qMomY]*c[qMomY] + c[qMomZ]*c[qMomZ]) / rho
	if r.Intn(3) == 0 {
		c[qEner] = kin * r.Float64()
	} else {
		c[qEner] = kin + (0.5+2*r.Float64())/0.4
	}
	return c
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

// FuzzEulerStepMatchesReference checks the Euler kernel's Step and MaxDT
// bitwise against the reference on small boxes, one cell wide included,
// filled with adversarialCell values, one cell of which (halo or interior)
// takes the fuzzed conserved values instead; or, when uniform, with the
// fuzzed values in every cell, where every face difference is exactly zero
// and a -0 momentum must come out as the reference's cur + (0 - 0).
func FuzzEulerStepMatchesReference(f *testing.F) {
	negZero := math.Copysign(0, -1)
	f.Add(uint8(3), uint8(2), uint8(1), int64(1), false, 5e-13, 1.0, -2.0, negZero, 0.1)
	f.Add(uint8(0), uint8(4), uint8(0), int64(2), false, -1.0, negZero, 0.0, 3.0, -5.0)
	f.Add(uint8(5), uint8(0), uint8(5), int64(3), false, 2.0, -0.5, 0.25, -0.125, 0.01)
	f.Add(uint8(2), uint8(2), uint8(2), int64(4), true, 1.0, negZero, negZero, 0.5, 3.0)
	f.Fuzz(func(t *testing.T, nx, ny, nz uint8, seed int64, uniform bool, rho, mx, my, mz, en float64) {
		planted := [qN]float64{rho, mx, my, mz, en}
		for q, v := range planted {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("non-finite input")
			}
			planted[q] = math.Mod(v, 1e6) // keeps fluxes finite; keeps the sign of ±0
		}
		k := NewRichtmyerMeshkov([geom.MaxDim]float64{1, 1, 1})
		box := geom.Box3(-1, 2, 0, int(nx%6)-1, int(ny%6)+2, int(nz%6))
		cur := amr.NewPatch(box, k.Ghost(), k.NumFields())
		r := rand.New(rand.NewSource(seed))
		fillAdversarialEuler(cur, r)
		at := r.Intn(len(cur.Field(qRho)))
		for off := range cur.Field(qRho) {
			if uniform || off == at {
				for q, v := range planted {
					cur.Field(q)[off] = v
				}
			}
		}
		g := UniformGrid(1.0 / 8)
		dtF, dtR := k.MaxDT(cur, g), Reference(k).MaxDT(cur, g)
		if math.Float64bits(dtF) != math.Float64bits(dtR) {
			t.Fatalf("box %v: MaxDT fused %v != reference %v", box, dtF, dtR)
		}
		if math.IsInf(dtF, 1) {
			dtF = 1e-3
		}
		stepBitExact(t, k, cur, g, dtF)
	})
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
