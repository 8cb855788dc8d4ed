package solver

import (
	"fmt"
	"math"
	"testing"

	"samrpart/internal/amr"
	"samrpart/internal/geom"
)

// outflowReference is the closure walk ApplyOutflowBC replaced, kept verbatim
// as the oracle of the row fill: it visits every padded cell of every field
// and copies the per-axis clamped interior cell into each shell cell.
func outflowReference(p *amr.Patch) {
	if p.Ghost == 0 {
		return
	}
	for f := 0; f < p.NumFields; f++ {
		fd := p.Field(f)
		padded := p.Padded()
		var pt geom.Point
		var walk func(d int)
		walk = func(d int) {
			if d == p.Box.Rank {
				clamped := pt
				inside := true
				for k := 0; k < p.Box.Rank; k++ {
					if clamped[k] < p.Box.Lo[k] {
						clamped[k] = p.Box.Lo[k]
						inside = false
					} else if clamped[k] > p.Box.Hi[k] {
						clamped[k] = p.Box.Hi[k]
						inside = false
					}
				}
				if !inside {
					fd[offsetOf(p, pt)] = fd[offsetOf(p, clamped)]
				}
				return
			}
			for v := padded.Lo[d]; v <= padded.Hi[d]; v++ {
				pt[d] = v
				walk(d + 1)
			}
			pt[d] = 0
		}
		walk(0)
	}
}

// shellPoison is a quiet NaN with a payload no arithmetic produces: a shell
// cell still holding it after a fill was never written.
var shellPoison = math.Float64frombits(0x7ff8_0000_dead_beef)

// poisonedPatch builds a patch whose every cell holds shellPoison except the
// interior, which gets distinct values (salted, with a signed zero and a
// foreign NaN among them so equality has to be on bits).
func poisonedPatch(box geom.Box, ghost, fields int, salt uint64) *amr.Patch {
	p := amr.NewPatch(box, ghost, fields)
	p.FillAll(shellPoison)
	n := salt
	for f := 0; f < fields; f++ {
		p.EachInterior(func(pt geom.Point) {
			n = n*6364136223846793005 + 1442695040888963407
			v := float64(int64(n>>11)) / (1 << 40)
			switch n >> 61 {
			case 0:
				v = math.Copysign(0, -1)
			case 1:
				v = math.Float64frombits(0x7ff8_0000_0000_0001 | n&0xffff0)
			}
			p.Set(f, pt, v)
		})
	}
	return p
}

// checkOutflow fills twin patches with the row fill and the reference walk
// and requires every cell of every field to agree bit for bit, with no shell
// cell left poisoned.
func checkOutflow(box geom.Box, ghost, fields int, salt uint64) error {
	got := poisonedPatch(box, ghost, fields, salt)
	want := poisonedPatch(box, ghost, fields, salt)
	ApplyOutflowBC(got)
	outflowReference(want)
	poison := math.Float64bits(shellPoison)
	for f := 0; f < fields; f++ {
		g, w := got.Field(f), want.Field(f)
		for i := range w {
			gb, wb := math.Float64bits(g[i]), math.Float64bits(w[i])
			if gb != wb {
				return fmt.Errorf("box %v ghost %d field %d/%d offset %d: %#x, reference %#x", box, ghost, f, fields, i, gb, wb)
			}
			if ghost > 0 && gb == poison {
				return fmt.Errorf("box %v ghost %d field %d/%d offset %d: poison survived the fill", box, ghost, f, fields, i)
			}
		}
	}
	return nil
}

// TestApplyOutflowBCMatchesReference sweeps the fill against the reference
// over ranks 1–3, halo widths 0–3 (wider than the interior included), extents
// 1–9 per axis, 1–5 fields and negative lower bounds.
func TestApplyOutflowBCMatchesReference(t *testing.T) {
	cases := 0
	for rank := 1; rank <= 3; rank++ {
		var ext geom.Point
		var sweep func(d int)
		sweep = func(d int) {
			if d < rank {
				for ext[d] = 1; ext[d] <= 9; ext[d]++ {
					sweep(d + 1)
				}
				return
			}
			for ghost := 0; ghost <= 3; ghost++ {
				cases++
				// Lower bounds on both sides of zero; the field count cycles
				// with the case so every (shape, count) class is met.
				lo := geom.Point{-4 + cases%7, 3 - cases%5, -9 + cases%11}
				var hi geom.Point
				for k := 0; k < rank; k++ {
					hi[k] = lo[k] + ext[k] - 1
				}
				if err := checkOutflow(geom.NewBox(rank, lo, hi), ghost, 1+cases%5, uint64(cases)); err != nil {
					t.Fatal(err)
				}
			}
		}
		sweep(0)
	}
	if want := (9 + 81 + 729) * 4; cases != want {
		t.Fatalf("swept %d cases, want %d", cases, want)
	}
}

// FuzzApplyOutflowBC explores the same property over arbitrary shapes.
func FuzzApplyOutflowBC(f *testing.F) {
	f.Add(uint8(2), uint8(2), uint8(4), uint8(4), uint8(1), uint8(1), int16(0), uint64(1))
	f.Add(uint8(3), uint8(3), uint8(1), uint8(1), uint8(1), uint8(5), int16(-7), uint64(2))
	f.Add(uint8(1), uint8(0), uint8(9), uint8(0), uint8(0), uint8(2), int16(5), uint64(3))
	f.Fuzz(func(t *testing.T, rank, ghost, nx, ny, nz, fields uint8, lo int16, salt uint64) {
		r := 1 + int(rank)%3
		l := geom.Point{int(lo), -int(lo) / 2, int(lo) / 3}
		ext := [3]uint8{nx, ny, nz}
		var h geom.Point
		for k := 0; k < r; k++ {
			h[k] = l[k] + int(ext[k])%9
		}
		if err := checkOutflow(geom.NewBox(r, l, h), int(ghost)%4, 1+int(fields)%5, salt); err != nil {
			t.Fatal(err)
		}
	})
}

// outflowShapes are the two patch shapes the benchmark workloads step: an
// RM3D tile (16³, halo 2, 5 fields) and a halo-latency tile (8², halo 1, 1
// field).
var outflowShapes = []struct {
	name          string
	box           geom.Box
	ghost, fields int
}{
	{"16x16x16-g2-f5", geom.Box3(0, 0, 0, 15, 15, 15), 2, 5},
	{"8x8-g1-f1", geom.Box2(0, 0, 7, 7), 1, 1},
}

// BenchmarkApplyOutflowBC measures the halo fallback fill.
func BenchmarkApplyOutflowBC(b *testing.B) {
	for _, tc := range outflowShapes {
		b.Run(tc.name, func(b *testing.B) {
			p := poisonedPatch(tc.box, tc.ghost, tc.fields, 1)
			b.SetBytes(p.Bytes() - tc.box.Cells()*int64(tc.fields)*8) // shell bytes written
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ApplyOutflowBC(p)
			}
		})
	}
}

func TestApplyOutflowBCAllocatesNothing(t *testing.T) {
	for _, tc := range outflowShapes {
		p := poisonedPatch(tc.box, tc.ghost, tc.fields, 1)
		if allocs := testing.AllocsPerRun(100, func() { ApplyOutflowBC(p) }); allocs != 0 {
			t.Errorf("%s: ApplyOutflowBC allocates %.1f times per call", tc.name, allocs)
		}
	}
}
