package solver

import (
	"math"
	"testing"

	"samrpart/internal/amr"
	"samrpart/internal/geom"
)

// TestEulerSodShockTube validates the Euler solver against the classic Sod
// problem: left state (rho=1, p=1), right state (rho=0.125, p=0.1), both at
// rest. The exact solution at t=0.2 has a rarefaction, a contact at
// rho≈0.426/0.265 and a shock; first-order Rusanov smears the waves but the
// plateau values and wave positions must be close.
func TestEulerSodShockTube(t *testing.T) {
	const n = 256
	e := &Euler3D{
		gamma:     1.4,
		domainLen: [geom.MaxDim]float64{1, 1.0 / float64(n) * 4, 1.0 / float64(n) * 4},
		cfl:       0.4,
	}
	g := UniformGrid(1.0 / n)
	box := geom.Box3(0, 0, 0, n-1, 3, 3)
	cur := amr.NewPatch(box, e.Ghost(), e.NumFields())
	next := amr.NewPatch(box, e.Ghost(), e.NumFields())
	// Hand-rolled Sod initial condition.
	for x := 0; x < n; x++ {
		rho, pr := 1.0, 1.0
		if float64(x)+0.5 > float64(n)/2 {
			rho, pr = 0.125, 0.1
		}
		for y := 0; y < 4; y++ {
			for z := 0; z < 4; z++ {
				pt := geom.Pt3(x, y, z)
				cur.Set(qRho, pt, rho)
				cur.Set(qEner, pt, pr/(e.gamma-1))
			}
		}
	}
	elapsed := 0.0
	for elapsed < 0.2 {
		ApplyOutflowBC(cur)
		dt := e.MaxDT(cur, g)
		if elapsed+dt > 0.2 {
			dt = 0.2 - elapsed
		}
		e.Step(next, cur, g, dt)
		cur, next = next, cur
		elapsed += dt
	}
	probe := func(xfrac float64) float64 {
		return cur.At(qRho, geom.Pt3(int(xfrac*n), 1, 1))
	}
	cases := []struct {
		x, want, tol float64
		what         string
	}{
		{0.10, 1.0, 0.02, "undisturbed left state"},
		{0.55, 0.426, 0.05, "post-rarefaction plateau"},
		{0.78, 0.265, 0.05, "post-shock plateau"},
		{0.95, 0.125, 0.02, "undisturbed right state"},
	}
	for _, c := range cases {
		if got := probe(c.x); math.Abs(got-c.want) > c.tol {
			t.Errorf("%s: rho(%.2f) = %.3f, want %.3f +/- %.2f",
				c.what, c.x, got, c.want, c.tol)
		}
	}
	// The shock has passed x=0.75 but not x=0.92 (exact speed ~1.75 from
	// x=0.5 -> front at ~0.85).
	if probe(0.92) > 0.14 {
		t.Error("shock travelled too far")
	}
	if probe(0.72) < 0.2 {
		t.Error("shock travelled too little")
	}
}

func TestAdvection3DRoundTrip(t *testing.T) {
	k := NewAdvection3D(1, 0.5, 0.25, 0.3, 0.3, 0.3, 0.1)
	if k.Rank() != 3 {
		t.Fatal("rank wrong")
	}
	g := UniformGrid(1.0 / 16)
	p := runSteps(k, geom.Box3(0, 0, 0, 15, 15, 15), g, 10)
	max := 0.0
	p.EachInterior(func(pt geom.Point) {
		if v := p.At(0, pt); v > max {
			max = v
		}
	})
	if max <= 0 || max > 1+1e-12 {
		t.Errorf("3D advection max = %g", max)
	}
}
