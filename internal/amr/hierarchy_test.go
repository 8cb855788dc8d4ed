package amr

import (
	"testing"

	"samrpart/internal/geom"
)

func testConfig() Config {
	return Config{
		Domain:        geom.Box2(0, 0, 63, 63),
		RefineRatio:   2,
		MaxLevels:     3,
		NestingBuffer: 1,
		Cluster:       ClusterOptions{Efficiency: 0.7, MinSide: 2},
	}
}

func TestNewHierarchy(t *testing.T) {
	h, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if h.NumLevels() != 1 {
		t.Errorf("NumLevels = %d", h.NumLevels())
	}
	l0 := h.Level(0)
	if len(l0) != 1 || !l0[0].Equal(testConfig().Domain) {
		t.Errorf("Level(0) = %v", l0)
	}
	if h.Level(5) != nil {
		t.Error("missing level should be nil")
	}
	if h.TotalWork() != 64*64 {
		t.Errorf("TotalWork = %d", h.TotalWork())
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{Domain: geom.Box2(0, 0, 7, 7), RefineRatio: 1, MaxLevels: 2, Cluster: DefaultClusterOptions()},
		{Domain: geom.Box2(0, 0, 7, 7), RefineRatio: 2, MaxLevels: 0, Cluster: DefaultClusterOptions()},
		{Domain: geom.Box2(0, 0, 7, 7).WithLevel(1), RefineRatio: 2, MaxLevels: 2, Cluster: DefaultClusterOptions()},
		{Domain: geom.Box2(0, 0, 7, 7), RefineRatio: 2, MaxLevels: 2, NestingBuffer: -1, Cluster: DefaultClusterOptions()},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestRegridCreatesLevel(t *testing.T) {
	h, _ := New(testConfig())
	f := NewFlagField(h.LevelDomain(0))
	region := geom.Box2(10, 10, 19, 19)
	f.each(region, func(pt geom.Point) { f.Set(pt) })
	if err := h.Regrid([]*FlagField{f}); err != nil {
		t.Fatal(err)
	}
	if h.NumLevels() != 2 {
		t.Fatalf("NumLevels = %d, want 2", h.NumLevels())
	}
	l1 := h.Level(1)
	var cells int64
	for _, b := range l1 {
		if b.Level != 1 {
			t.Errorf("level-1 box tagged %d", b.Level)
		}
		cells += b.Cells()
	}
	// Refined region must cover the flags refined by 2: 10x10 coarse cells
	// -> 400 fine cells at least.
	if cells < 400 {
		t.Errorf("level-1 cells = %d, want >= 400", cells)
	}
	// Level-1 boxes nest inside the refined domain.
	l1dom := h.LevelDomain(1)
	for _, b := range l1 {
		if !containsBox(l1dom, b) {
			t.Errorf("box %v escapes level domain", b)
		}
	}
}

func TestRegridEmptyFlagsRemovesLevels(t *testing.T) {
	h, _ := New(testConfig())
	f := NewFlagField(h.LevelDomain(0))
	f.each(geom.Box2(4, 4, 11, 11), func(pt geom.Point) { f.Set(pt) })
	if err := h.Regrid([]*FlagField{f}); err != nil {
		t.Fatal(err)
	}
	if h.NumLevels() != 2 {
		t.Fatal("setup failed")
	}
	if err := h.Regrid(nil); err != nil {
		t.Fatal(err)
	}
	if h.NumLevels() != 1 {
		t.Errorf("NumLevels after clearing = %d, want 1", h.NumLevels())
	}
}

func TestRegridThreeLevelsProperNesting(t *testing.T) {
	h, _ := New(testConfig())
	// Flag level 0 to build level 1.
	f0 := NewFlagField(h.LevelDomain(0))
	f0.each(geom.Box2(8, 8, 23, 23), func(pt geom.Point) { f0.Set(pt) })
	if err := h.Regrid([]*FlagField{f0}); err != nil {
		t.Fatal(err)
	}
	// Flag level 1 to build level 2.
	f1 := NewFlagField(h.LevelDomain(1))
	f1.each(geom.Box2(24, 24, 39, 39).WithLevel(1), func(pt geom.Point) { f1.Set(pt) })
	if err := h.Regrid([]*FlagField{f0, f1}); err != nil {
		t.Fatal(err)
	}
	if h.NumLevels() != 3 {
		t.Fatalf("NumLevels = %d, want 3", h.NumLevels())
	}
	// Proper nesting: each level-2 box, coarsened, inside some union of
	// level-1 boxes (check coverage cell count).
	l1, l2 := h.Level(1), h.Level(2)
	for _, b := range l2 {
		c := b.Coarsen(2)
		if cov := coverage(l1, c); cov != c.Cells() {
			t.Errorf("level-2 box %v not nested: coverage %d of %d", b, cov, c.Cells())
		}
	}
	// AllBoxes carries all levels.
	all := h.AllBoxes()
	if len(all) != len(h.Level(0))+len(l1)+len(l2) {
		t.Error("AllBoxes misses boxes")
	}
}

func TestRegridKeepsGrandchildNested(t *testing.T) {
	// After building 3 levels, regrid level 1 with flags that shift away
	// from the level-2 region; level 1 must still cover level 2.
	h, _ := New(testConfig())
	f0 := NewFlagField(h.LevelDomain(0))
	f0.each(geom.Box2(8, 8, 23, 23), func(pt geom.Point) { f0.Set(pt) })
	_ = h.Regrid([]*FlagField{f0})
	f1 := NewFlagField(h.LevelDomain(1))
	f1.each(geom.Box2(24, 24, 31, 31).WithLevel(1), func(pt geom.Point) { f1.Set(pt) })
	_ = h.Regrid([]*FlagField{f0, f1})
	if h.NumLevels() != 3 {
		t.Fatal("setup failed")
	}
	// New level-0 flags move elsewhere but keep the old region flagged too
	// via the nesting logic: regrid levels with only distant level-0 flags.
	g0 := NewFlagField(h.LevelDomain(0))
	g0.each(geom.Box2(40, 40, 55, 55), func(pt geom.Point) { g0.Set(pt) })
	if err := h.Regrid([]*FlagField{g0, f1}); err != nil {
		t.Fatal(err)
	}
	l1, l2 := h.Level(1), h.Level(2)
	for _, b := range l2 {
		c := b.Coarsen(2)
		if cov := coverage(l1, c); cov != c.Cells() {
			t.Errorf("grandchild %v lost nesting after shifted regrid", b)
		}
	}
}

func TestRegridDisjointLevels(t *testing.T) {
	h, _ := New(testConfig())
	f0 := NewFlagField(h.LevelDomain(0))
	// Two blobs close enough that clusters may touch after clipping.
	f0.each(geom.Box2(4, 4, 11, 11), func(pt geom.Point) { f0.Set(pt) })
	f0.each(geom.Box2(13, 4, 20, 11), func(pt geom.Point) { f0.Set(pt) })
	if err := h.Regrid([]*FlagField{f0}); err != nil {
		t.Fatal(err)
	}
	if l1 := h.Level(1); !l1.Disjoint() {
		t.Errorf("level-1 boxes overlap: %v", l1)
	}
}

func TestWorkOf(t *testing.T) {
	b := geom.Box2(0, 0, 7, 7) // 64 cells
	if workOf(b, 2) != 64 {
		t.Error("level-0 work wrong")
	}
	if workOf(b.WithLevel(2), 2) != 64*4 {
		t.Error("level-2 work should be cells * ratio^2")
	}
}

func TestSchedule(t *testing.T) {
	cases := []struct {
		levels, ratio int
		want          []int
	}{
		{1, 2, []int{0}},
		{2, 2, []int{0, 1, 1}},
		{3, 2, []int{0, 1, 2, 2, 1, 2, 2}},
		{2, 4, []int{0, 1, 1, 1, 1}},
	}
	for _, c := range cases {
		got := Schedule(c.levels, c.ratio)
		if len(got) != len(c.want) {
			t.Errorf("Schedule(%d,%d) = %v, want %v", c.levels, c.ratio, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Schedule(%d,%d) = %v, want %v", c.levels, c.ratio, got, c.want)
				break
			}
		}
	}
	if Schedule(0, 2) != nil {
		t.Error("Schedule(0) should be nil")
	}
	// Level l appears ratio^l times.
	sched := Schedule(3, 2)
	counts := map[int]int{}
	for _, l := range sched {
		counts[l]++
	}
	for l := 0; l < 3; l++ {
		if counts[l] != StepsPerCoarse(l, 2) {
			t.Errorf("level %d appears %d times, want %d", l, counts[l], StepsPerCoarse(l, 2))
		}
	}
}

// coverage returns the number of cells of probe covered by boxes of the
// disjoint list l at the same level.
func coverage(l geom.BoxList, probe geom.Box) int64 {
	var n int64
	for _, b := range l {
		if b.Level == probe.Level {
			n += b.Intersect(probe).Cells()
		}
	}
	return n
}
