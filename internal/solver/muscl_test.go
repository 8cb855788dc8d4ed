package solver

import (
	"math"
	"testing"

	"samrpart/internal/amr"
	"samrpart/internal/geom"
)

// advectL1Error transports the kernel's Gaussian pulse for a fixed physical
// time on an n x n grid and returns the L1 error against the exact
// (translated) solution.
func advectL1Error(t *testing.T, k Kernel, n int, vx, vy, tEnd float64) float64 {
	t.Helper()
	g := UniformGrid(1.0 / float64(n))
	box := geom.Box2(0, 0, n-1, n-1)
	cur := amr.NewPatch(box, k.Ghost(), k.NumFields())
	next := amr.NewPatch(box, k.Ghost(), k.NumFields())
	k.Init(cur, g)
	elapsed := 0.0
	for elapsed < tEnd {
		ApplyOutflowBC(cur)
		dt := k.MaxDT(cur, g)
		if elapsed+dt > tEnd {
			dt = tEnd - elapsed
		}
		k.Step(next, cur, g, dt)
		cur, next = next, cur
		elapsed += dt
	}
	// Exact: the initial Gaussian moved by (vx, vy) * tEnd.
	const cx, cy, w = 0.3, 0.3, 0.08
	errSum := 0.0
	cur.EachInterior(func(pt geom.Point) {
		x, y, _ := g.cellCenter(pt)
		exact := math.Exp(-(sq(x-cx-vx*tEnd) + sq(y-cy-vy*tEnd)) / (w * w))
		errSum += math.Abs(cur.At(0, pt) - exact)
	})
	return errSum / float64(n*n)
}

func TestMUSCLConvergenceOrder(t *testing.T) {
	const vx, vy, tEnd = 1.0, 0.5, 0.25
	muscl := func(n int) float64 {
		return advectL1Error(t, NewMUSCLAdvection2D(vx, vy, 0.3, 0.3, 0.08), n, vx, vy, tEnd)
	}
	upwind := func(n int) float64 {
		return advectL1Error(t, NewAdvection2D(vx, vy, 0.3, 0.3, 0.08), n, vx, vy, tEnd)
	}
	e64, e128 := muscl(64), muscl(128)
	order := math.Log2(e64 / e128)
	// Minmod-limited MUSCL: better than ~1.3 observed L1 order on smooth
	// data (the limiter clips extrema, so it doesn't reach a clean 2.0).
	if order < 1.3 {
		t.Errorf("MUSCL observed order %.2f (e64=%.2e, e128=%.2e)", order, e64, e128)
	}
	// And it must beat first-order upwind outright at equal resolution.
	u128 := upwind(128)
	if e128 >= u128/2 {
		t.Errorf("MUSCL error %.2e not well below upwind %.2e", e128, u128)
	}
	uorder := math.Log2(upwind(64) / u128)
	if uorder > 1.2 {
		t.Errorf("first-order upwind converges at order %.2f?", uorder)
	}
}

func TestMUSCLMonotone(t *testing.T) {
	// TVD property: no new extrema beyond [0, 1].
	k := NewMUSCLAdvection2D(1.0, 0.7, 0.3, 0.3, 0.1)
	g := UniformGrid(1.0 / 64)
	p := runSteps(k, geom.Box2(0, 0, 63, 63), g, 40)
	p.EachInterior(func(pt geom.Point) {
		v := p.At(0, pt)
		if v < -1e-10 || v > 1+1e-10 {
			t.Fatalf("limiter violated bounds: %g at %v", v, pt)
		}
	})
}

func TestMinmod(t *testing.T) {
	cases := []struct{ x, y, want float64 }{
		{1, 2, 1},
		{2, 1, 1},
		{-1, -3, -1},
		{1, -1, 0},
		{0, 5, 0},
		{-2, -1, -1},
	}
	for _, c := range cases {
		if got := minmod(c.x, c.y); got != c.want {
			t.Errorf("minmod(%g,%g) = %g, want %g", c.x, c.y, got, c.want)
		}
	}
}

func TestMUSCLMetadata(t *testing.T) {
	k := NewMUSCLAdvection2D(1, 0, 0.5, 0.5, 0.1)
	if k.Ghost() != 4 {
		t.Error("MUSCL+SSPRK2 needs a 4-cell halo")
	}
	if k.Rank() != 2 || k.NumFields() != 1 || k.FlopsPerCell() <= 0 {
		t.Error("metadata wrong")
	}
	if !math.IsInf((&MUSCLAdvection{dim: 2}).MaxDT(nil, UniformGrid(0.1)), 1) {
		t.Error("zero-velocity dt should be infinite")
	}
}

func TestMUSCLInEngineCompatibleFlagging(t *testing.T) {
	// The kernel's Flag hook behaves like the others: flags concentrate at
	// the pulse.
	k := NewMUSCLAdvection2D(1, 0, 0.3, 0.3, 0.08)
	g := UniformGrid(1.0 / 32)
	p := amr.NewPatch(geom.Box2(0, 0, 31, 31), k.Ghost(), 1)
	k.Init(p, g)
	f := amr.NewFlagField(p.Box)
	k.Flag(p, g, f, 0.1)
	if f.Count() == 0 {
		t.Fatal("no flags at the pulse")
	}
	b, _ := f.FlaggedBounds(f.Box)
	if !b.Contains(geom.Pt2(9, 9)) {
		t.Errorf("flags %v miss the pulse center", b)
	}
}
