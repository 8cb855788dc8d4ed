package geom

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// genBox draws a random non-empty box of rank 2 or 3 with extents in
// [1, 64] and origins in [-32, 32].
func genBox(r *rand.Rand) Box {
	rank := 2 + r.Intn(2)
	var lo, hi Point
	for d := 0; d < rank; d++ {
		lo[d] = r.Intn(65) - 32
		hi[d] = lo[d] + r.Intn(64)
	}
	return NewBox(rank, lo, hi)
}

// boxGen adapts genBox for testing/quick value generation.
type boxGen struct{ B Box }

func (boxGen) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(boxGen{B: genBox(r)})
}

type boxPairGen struct{ A, B Box }

func (boxPairGen) Generate(r *rand.Rand, _ int) reflect.Value {
	rank := 2 + r.Intn(2)
	mk := func() Box {
		var lo, hi Point
		for d := 0; d < rank; d++ {
			lo[d] = r.Intn(33) - 16
			hi[d] = lo[d] + r.Intn(32)
		}
		return NewBox(rank, lo, hi)
	}
	return reflect.ValueOf(boxPairGen{A: mk(), B: mk()})
}

var quickCfg = &quick.Config{MaxCount: 500}

// containsBox reports whether o lies entirely inside b; empty boxes are
// inside everything.
func containsBox(b, o Box) bool {
	return o.Empty() || b.Contains(o.Lo) && b.Contains(o.Hi)
}

func TestQuickIntersectCommutes(t *testing.T) {
	f := func(g boxPairGen) bool {
		ab := g.A.Intersect(g.B)
		ba := g.B.Intersect(g.A)
		if ab.Empty() && ba.Empty() {
			return true
		}
		return ab.Lo == ba.Lo && ab.Hi == ba.Hi
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickIntersectContained(t *testing.T) {
	f := func(g boxPairGen) bool {
		in := g.A.Intersect(g.B)
		if in.Empty() {
			return true
		}
		return containsBox(g.A, in) && containsBox(g.B, in)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickSplitPreservesVolumeAndDisjoint(t *testing.T) {
	f := func(g boxGen, axisSeed, cutSeed uint8) bool {
		b := g.B
		d := int(axisSeed) % b.Rank
		if b.Size(d) < 2 {
			return true
		}
		at := b.Lo[d] + 1 + int(cutSeed)%(b.Size(d)-1)
		lo, hi := b.Split(d, at)
		return lo.Cells()+hi.Cells() == b.Cells() &&
			!lo.Intersects(hi) &&
			containsBox(b, lo) && containsBox(b, hi)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickSplitFractionInvariants(t *testing.T) {
	f := func(g boxGen, fracSeed uint8, minSeed uint8) bool {
		b := g.B
		d := b.LongestAxis()
		frac := float64(fracSeed%100) / 100.0
		minSide := 1 + int(minSeed)%8
		lo, hi, ok := b.SplitFraction(d, frac, minSide)
		if !ok {
			return b.Size(d) < 2*minSide
		}
		return lo.Cells()+hi.Cells() == b.Cells() &&
			lo.Size(d) >= minSide && hi.Size(d) >= minSide &&
			!lo.Intersects(hi)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickRefineCoarsenIdentity(t *testing.T) {
	f := func(g boxGen, ratioSeed uint8) bool {
		b := g.B
		ratio := 2 + int(ratioSeed)%3
		r := b.Refine(ratio)
		if r.Cells() != b.Cells()*pow64(int64(ratio), b.Rank) {
			return false
		}
		c := r.Coarsen(ratio)
		return c.Lo == b.Lo && c.Hi == b.Hi && c.Level == b.Level
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickCoarsenCovers(t *testing.T) {
	// coarsen(b).refine(r) must cover b.
	f := func(g boxGen, ratioSeed uint8) bool {
		b := g.B
		ratio := 2 + int(ratioSeed)%3
		c := b.Coarsen(ratio)
		cover := c.Refine(ratio)
		cover.Level = b.Level
		return containsBox(cover, b)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickSubtractPartition(t *testing.T) {
	f := func(g boxPairGen) bool {
		parts := BoxList(g.A.Subtract(g.B))
		var cells int64
		for _, p := range parts {
			if p.Intersects(g.B) || !containsBox(g.A, p) {
				return false
			}
			cells += p.Cells()
		}
		if !parts.Disjoint() {
			return false
		}
		return cells == g.A.Cells()-g.A.Intersect(g.B).Cells()
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickGrowShrinkIdentity(t *testing.T) {
	f := func(g boxGen, nSeed uint8) bool {
		n := int(nSeed % 16)
		b := g.B
		return b.Grow(n).Grow(-n).Equal(b)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickBoundingUnionContains(t *testing.T) {
	f := func(g boxPairGen) bool {
		u := g.A.boundingUnion(g.B)
		return containsBox(u, g.A) && containsBox(u, g.B)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func pow64(base int64, exp int) int64 {
	out := int64(1)
	for i := 0; i < exp; i++ {
		out *= base
	}
	return out
}
