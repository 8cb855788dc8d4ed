package amr

import (
	"math"
	"math/rand"
	"testing"

	"samrpart/internal/geom"
)

// prolongRegionRef and restrictRef are the per-cell transfer operators the
// row-run ones replaced, kept verbatim as the bit-exact oracle; the one
// edit is that restrictRef calls containsBox, the body of the
// geom.Box.ContainsBox method that Restrict was the last user of.

// containsBox reports whether o lies entirely inside b; empty boxes are
// inside everything.
func containsBox(b, o geom.Box) bool {
	return o.Empty() || b.Contains(o.Lo) && b.Contains(o.Hi)
}

func prolongRegionRef(fine, coarse *Patch, ratio int, region geom.Box) int64 {
	if fine.NumFields != coarse.NumFields {
		panic("amr: Prolong field count mismatch")
	}
	coarseAsFine := coarse.Box.Refine(ratio)
	coarseAsFine.Level = fine.Box.Level
	region = region.Intersect(fine.Padded()).Intersect(coarseAsFine)
	if region.Empty() {
		return 0
	}
	for f := 0; f < fine.NumFields; f++ {
		ff, cf := fine.Field(f), coarse.Field(f)
		fine.eachIn(region, func(pt geom.Point) {
			cp := pt.DivFloor(ratio)
			ff[fine.offset(pt)] = cf[coarse.offset(cp)]
		})
	}
	return region.Cells()
}

func restrictRef(coarse, fine *Patch, ratio int) int64 {
	if fine.NumFields != coarse.NumFields {
		panic("amr: Restrict field count mismatch")
	}
	fineAsCoarse := fine.Box.Coarsen(ratio)
	fineAsCoarse.Level = coarse.Box.Level
	// Only coarse cells whose full fine block lies inside fine.Box.
	region := coarse.Box.Intersect(fineAsCoarse)
	if region.Empty() {
		return 0
	}
	children := int64(1)
	for d := 0; d < coarse.Box.Rank; d++ {
		children *= int64(ratio)
	}
	inv := 1.0 / float64(children)
	var updated int64
	for f := 0; f < coarse.NumFields; f++ {
		cf, ff := coarse.Field(f), fine.Field(f)
		coarse.eachIn(region, func(pt geom.Point) {
			block := geom.NewBox(coarse.Box.Rank, pt, pt).Refine(ratio)
			block.Level = fine.Box.Level
			if !containsBox(fine.Box, block) {
				return
			}
			sum := 0.0
			fine.eachIn(block, func(fp geom.Point) {
				sum += ff[fine.offset(fp)]
			})
			cf[coarse.offset(pt)] = sum * inv
			if f == 0 {
				updated++
			}
		})
	}
	return updated
}

// transferCase decodes shape bytes into a coarse patch, a fine patch one
// level up and a prolongation region, then fills every cell of both
// (halos included) from seed. Missing shape bytes read as 0, so every
// input is a valid case:
//
//	rank 1-3, ratio 2 or 4, ghosts 0-2 per patch, 1-3 fields;
//	coarse corner -8..7 and extent 1-6 per axis;
//	fine corner within three coarse cells either side of the coarse
//	box's refined corner, extent 1-16, so fine boxes cover the coarse
//	box wholly, partly or not at all;
//	region = the fine padded box or a box around it that clips it;
//	values: ±0 only (so all-negative-zero child blocks occur), or a mix
//	of ±0, subnormals and magnitudes from 1e-300 to 1e300.
func transferCase(shape []byte, seed uint64) (coarse, fine *Patch, ratio int, region geom.Box) {
	next := func() int {
		if len(shape) == 0 {
			return 0
		}
		b := shape[0]
		shape = shape[1:]
		return int(b)
	}
	rank := 1 + next()%3
	ratio = 2 << (next() % 2)
	cg, fg, nf := next()%3, next()%3, 1+next()%3
	zerosOnly := next()%4 == 0
	var clo, chi, flo, fhi geom.Point
	for d := 0; d < rank; d++ {
		clo[d] = next()%16 - 8
		chi[d] = clo[d] + next()%6
		flo[d] = clo[d]*ratio + next()%(6*ratio+1) - 3*ratio
		fhi[d] = flo[d] + next()%16
	}
	coarse = NewPatch(geom.NewBox(rank, clo, chi), cg, nf)
	fine = NewPatch(geom.NewBox(rank, flo, fhi).WithLevel(1), fg, nf)
	region = fine.Padded()
	if next()%2 == 1 {
		for d := 0; d < rank; d++ {
			region.Lo[d] += next()%7 - 3
			region.Hi[d] -= next()%7 - 3
		}
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	value := func() float64 {
		sign := 1.0
		if rng.Intn(2) == 0 {
			sign = -1
		}
		if zerosOnly {
			return math.Copysign(0, sign)
		}
		switch rng.Intn(6) {
		case 0:
			return math.Copysign(0, sign)
		case 1:
			return sign * math.Float64frombits(rng.Uint64()&(1<<52-1)) // subnormal
		case 2:
			return sign * rng.Float64() * 1e300
		case 3:
			return sign * rng.Float64() * 1e-300
		default:
			return sign * rng.Float64() * math.Pow(10, float64(rng.Intn(33)-16))
		}
	}
	for _, p := range []*Patch{coarse, fine} {
		for i := range p.data {
			p.data[i] = value()
		}
	}
	return coarse, fine, ratio, region
}

// checkTransfer runs both operators and their references on copies of one
// case and fails unless counts and every stored bit of both patches agree.
func checkTransfer(t *testing.T, shape []byte, seed uint64) (prolonged, restricted bool) {
	t.Helper()
	coarse, fine, ratio, region := transferCase(shape, seed)
	sameBits := func(op string, got, want *Patch) {
		for i := range want.data {
			if math.Float64bits(got.data[i]) != math.Float64bits(want.data[i]) {
				t.Fatalf("%s ratio %d fine %v coarse %v region %v: word %d = %v (%#x), reference %v (%#x)",
					op, ratio, fine.Box, coarse.Box, region, i, got.data[i], math.Float64bits(got.data[i]),
					want.data[i], math.Float64bits(want.data[i]))
			}
		}
	}

	fg, fw, cw := fine.Clone(), fine.Clone(), coarse.Clone()
	n, nRef := ProlongRegion(fg, coarse, ratio, region), prolongRegionRef(fw, cw, ratio, region)
	if n != nRef {
		t.Fatalf("ProlongRegion ratio %d fine %v coarse %v region %v: %d cells, reference %d", ratio, fine.Box, coarse.Box, region, n, nRef)
	}
	sameBits("ProlongRegion fine", fg, fw)
	sameBits("ProlongRegion coarse", coarse, cw)

	cg, cw, fw := coarse.Clone(), coarse.Clone(), fine.Clone()
	m, mRef := Restrict(cg, fine, ratio), restrictRef(cw, fw, ratio)
	if m != mRef {
		t.Fatalf("Restrict ratio %d fine %v coarse %v: %d cells, reference %d", ratio, fine.Box, coarse.Box, m, mRef)
	}
	sameBits("Restrict coarse", cg, cw)
	sameBits("Restrict fine", fine, fw)
	return n > 0, m > 0
}

// TestTransferMatchesReference checks the row-run operators against the
// per-cell reference on random cases, and that the cases reach both
// non-empty and empty transfers.
func TestTransferMatchesReference(t *testing.T) {
	cases := 3000
	if testing.Short() {
		cases = 500
	}
	rng := rand.New(rand.NewSource(43))
	var prolonged, restricted int
	for i := 0; i < cases; i++ {
		shape := make([]byte, 32)
		rng.Read(shape)
		p, r := checkTransfer(t, shape, rng.Uint64())
		if p {
			prolonged++
		}
		if r {
			restricted++
		}
	}
	t.Logf("%d cases: %d non-empty prolongations, %d non-empty restrictions", cases, prolonged, restricted)
	if prolonged < cases/4 || restricted < cases/4 || prolonged == cases || restricted == cases {
		t.Fatalf("%d cases: %d non-empty prolongations, %d non-empty restrictions; want both mixed", cases, prolonged, restricted)
	}
}

// FuzzTransferMatchesReference explores the same property over fuzzed
// shapes and value seeds.
func FuzzTransferMatchesReference(f *testing.F) {
	f.Add([]byte{2, 0, 1, 2, 2, 0, 8, 3, 6, 7, 8, 3, 6, 7, 8, 3, 6, 7, 1, 5, 1, 4, 2, 3, 3}, uint64(1)) // 3-D, ratio 2, ±0 only, clipped region
	f.Add([]byte{1, 1, 0, 1, 0, 1, 4, 2, 14, 15, 2, 5, 12, 15, 0}, uint64(2))                           // 2-D, ratio 4, negative corners
	f.Add([]byte{0, 0, 2, 2, 1, 1, 8, 5, 8, 9, 1, 0, 6}, uint64(3))                                     // 1-D, 2 fields, clipped region
	f.Add([]byte{2, 1, 1, 1, 2, 1, 3, 3, 12, 15, 9, 3, 12, 15, 3, 2, 20, 15, 0}, uint64(4))             // 3-D, ratio 4, 3 fields
	f.Fuzz(func(t *testing.T, shape []byte, seed uint64) {
		checkTransfer(t, shape, seed)
	})
}
