package amr

import (
	"strings"
	"testing"

	"samrpart/internal/geom"
)

func TestHierarchyStats(t *testing.T) {
	h, _ := New(testConfig())
	f := NewFlagField(h.LevelDomain(0))
	f.each(geom.Box2(8, 8, 23, 23), func(pt geom.Point) { f.Set(pt) })
	if err := h.Regrid([]*FlagField{f}); err != nil {
		t.Fatal(err)
	}
	stats := h.stats()
	if len(stats) != h.NumLevels() {
		t.Fatalf("stats for %d levels, hierarchy has %d", len(stats), h.NumLevels())
	}
	l0 := stats[0]
	if l0.Level != 0 || l0.Boxes != 1 || l0.Cells != 64*64 || l0.Work != 64*64 {
		t.Errorf("level-0 stats wrong: %+v", l0)
	}
	if l0.CoverageFrac != 1 {
		t.Errorf("level-0 coverage = %g", l0.CoverageFrac)
	}
	l1 := stats[1]
	if l1.Cells < 32*32 {
		t.Errorf("level-1 cells = %d", l1.Cells)
	}
	if l1.Work != l1.Cells*2 {
		t.Errorf("level-1 work %d != cells*ratio %d", l1.Work, l1.Cells*2)
	}
	if l1.CoverageFrac <= 0 || l1.CoverageFrac >= 1 {
		t.Errorf("level-1 coverage = %g", l1.CoverageFrac)
	}
	if l1.MeanAspect < 1 {
		t.Errorf("mean aspect = %g", l1.MeanAspect)
	}
	desc := h.Describe()
	if !strings.Contains(desc, "L0:") || !strings.Contains(desc, "L1:") {
		t.Errorf("Describe = %q", desc)
	}
}

func TestRegridCoalescesFragments(t *testing.T) {
	// Two adjacent flagged blobs that cluster separately but clip/refine
	// into mergeable rectangles should not produce gratuitous slivers.
	h, _ := New(testConfig())
	f := NewFlagField(h.LevelDomain(0))
	f.each(geom.Box2(8, 8, 15, 15), func(pt geom.Point) { f.Set(pt) })
	f.each(geom.Box2(16, 8, 23, 15), func(pt geom.Point) { f.Set(pt) })
	if err := h.Regrid([]*FlagField{f}); err != nil {
		t.Fatal(err)
	}
	l1 := h.Level(1)
	// The two blobs form one 16x8 rectangle; coalescing should deliver a
	// single box.
	if len(l1) != 1 {
		t.Errorf("expected one coalesced level-1 box, got %d: %v", len(l1), l1)
	}
}
