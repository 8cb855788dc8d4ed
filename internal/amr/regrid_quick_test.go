package amr

import (
	"math/rand"
	"testing"
	"testing/quick"

	"samrpart/internal/geom"
)

// TestQuickRegridInvariants drives repeated regrids with random flag
// patterns and checks the structural invariants every time: disjoint
// per-level boxes inside the level domain, proper nesting of each level in
// its parent, and full coverage of the flagged cells by the new child
// level.
func TestQuickRegridInvariants(t *testing.T) {
	f := func(seed int64, rounds uint8) bool {
		r := rand.New(rand.NewSource(seed))
		h, err := New(Config{
			Domain:        geom.Box2(0, 0, 63, 63),
			RefineRatio:   2,
			MaxLevels:     3,
			NestingBuffer: 1,
			Cluster:       ClusterOptions{Efficiency: 0.65, MinSide: 4},
		})
		if err != nil {
			return false
		}
		for round := 0; round < 1+int(rounds)%4; round++ {
			// Random flags on every level that can host a child.
			var flags []*FlagField
			for l := 0; l < h.NumLevels() && l < 2; l++ {
				ff := NewFlagField(h.LevelDomain(l))
				lvlBoxes := h.Level(l)
				for i := 0; i < 1+r.Intn(3); i++ {
					// Blob inside a random existing level box.
					host := lvlBoxes[r.Intn(len(lvlBoxes))]
					if host.Size(0) < 8 || host.Size(1) < 8 {
						continue
					}
					x := host.Lo[0] + r.Intn(host.Size(0)-7)
					y := host.Lo[1] + r.Intn(host.Size(1)-7)
					blob := geom.Box2(x, y, x+7, y+7).WithLevel(l).Intersect(host)
					ff.each(blob, func(pt geom.Point) { ff.Set(pt) })
				}
				flags = append(flags, ff)
			}
			flaggedL0 := flags[0].Count()
			if err := h.Regrid(flags); err != nil {
				return false
			}
			// Invariants.
			for l := 0; l < h.NumLevels(); l++ {
				lvl := h.Level(l)
				if !lvl.Disjoint() {
					return false
				}
				dom := h.LevelDomain(l)
				for _, b := range lvl {
					if b.Level != l || !containsBox(dom, b) {
						return false
					}
				}
				if l >= 2 {
					parent := h.Level(l - 1)
					for _, b := range lvl {
						c := b.Coarsen(2)
						if coverage(parent, c) != c.Cells() {
							return false
						}
					}
				}
			}
			// Every flagged level-0 cell is covered by the new level 1.
			if flaggedL0 > 0 {
				if h.NumLevels() < 2 {
					return false
				}
				l1 := h.Level(1)
				covered := true
				flags[0].each(flags[0].Box, func(pt geom.Point) {
					if !flags[0].Get(pt) {
						return
					}
					fine := geom.NewBox(2, pt, pt).Refine(2)
					if coverage(l1, fine) != fine.Cells() {
						covered = false
					}
				})
				if !covered {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
