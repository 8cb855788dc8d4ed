package amr

import (
	"math/rand"
	"testing"
	"testing/quick"

	"samrpart/internal/geom"
)

func TestFlagFieldBasics(t *testing.T) {
	f := NewFlagField(geom.Box2(0, 0, 9, 9))
	if f.Count() != 0 {
		t.Error("new field not clear")
	}
	f.Set(geom.Pt2(3, 3))
	f.Set(geom.Pt2(3, 3))     // idempotent
	f.Set(geom.Pt2(100, 100)) // outside: ignored
	if f.Count() != 1 {
		t.Errorf("Count = %d, want 1", f.Count())
	}
	if !f.Get(geom.Pt2(3, 3)) || f.Get(geom.Pt2(4, 3)) {
		t.Error("Get wrong")
	}
	if f.Get(geom.Pt2(-1, 0)) {
		t.Error("outside point reported flagged")
	}
}

func TestFlaggedBounds(t *testing.T) {
	f := NewFlagField(geom.Box2(0, 0, 15, 15))
	if _, any := f.FlaggedBounds(f.Box); any {
		t.Error("empty field has bounds")
	}
	f.Set(geom.Pt2(2, 3))
	f.Set(geom.Pt2(9, 7))
	b, any := f.FlaggedBounds(f.Box)
	if !any || !b.Equal(geom.Box2(2, 3, 9, 7)) {
		t.Errorf("FlaggedBounds = %v,%v", b, any)
	}
	// Restricted region.
	b, any = f.FlaggedBounds(geom.Box2(0, 0, 5, 5))
	if !any || !b.Equal(geom.Box2(2, 3, 2, 3)) {
		t.Errorf("restricted FlaggedBounds = %v,%v", b, any)
	}
}

func TestBuffer(t *testing.T) {
	f := NewFlagField(geom.Box2(0, 0, 9, 9))
	f.Set(geom.Pt2(5, 5))
	f.Buffer(1)
	if f.Count() != 9 {
		t.Errorf("buffered count = %d, want 9", f.Count())
	}
	// Clipped at the boundary.
	g := NewFlagField(geom.Box2(0, 0, 9, 9))
	g.Set(geom.Pt2(0, 0))
	g.Buffer(1)
	if g.Count() != 4 {
		t.Errorf("corner buffered count = %d, want 4", g.Count())
	}
}

func TestSignature(t *testing.T) {
	f := NewFlagField(geom.Box2(0, 0, 4, 2))
	f.Set(geom.Pt2(0, 0))
	f.Set(geom.Pt2(0, 1))
	f.Set(geom.Pt2(3, 0))
	sigX := f.signature(f.Box, 0)
	want := []int{2, 0, 0, 1, 0}
	for i := range want {
		if sigX[i] != want[i] {
			t.Fatalf("sigX = %v, want %v", sigX, want)
		}
	}
	sigY := f.signature(f.Box, 1)
	if sigY[0] != 2 || sigY[1] != 1 || sigY[2] != 0 {
		t.Fatalf("sigY = %v", sigY)
	}
}

func checkClustering(t *testing.T, f *FlagField, boxes geom.BoxList, opts ClusterOptions) {
	t.Helper()
	if !boxes.Disjoint() {
		t.Error("cluster boxes overlap")
	}
	// Every flagged cell covered.
	f.each(f.Box, func(pt geom.Point) {
		if !f.Get(pt) {
			return
		}
		for _, b := range boxes {
			if b.Contains(pt) {
				return
			}
		}
		t.Fatalf("flagged cell %v not covered", pt)
	})
	for _, b := range boxes {
		if f.countIn(b) == 0 {
			t.Errorf("cluster box %v contains no flags", b)
		}
	}
}

func TestClusterSingleBlob(t *testing.T) {
	f := NewFlagField(geom.Box2(0, 0, 31, 31))
	blob := geom.Box2(10, 10, 17, 17)
	f.each(blob, func(pt geom.Point) { f.Set(pt) })
	opts := DefaultClusterOptions()
	boxes, err := Cluster(f, f.Box, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(boxes) != 1 {
		t.Fatalf("got %d boxes, want 1: %v", len(boxes), boxes)
	}
	if !boxes[0].Equal(blob) {
		t.Errorf("cluster = %v, want %v", boxes[0], blob)
	}
	checkClustering(t, f, boxes, opts)
}

func TestClusterTwoBlobsSplitAtHole(t *testing.T) {
	f := NewFlagField(geom.Box2(0, 0, 63, 15))
	a := geom.Box2(2, 2, 9, 9)
	b := geom.Box2(40, 4, 47, 11)
	f.each(a, func(pt geom.Point) { f.Set(pt) })
	f.each(b, func(pt geom.Point) { f.Set(pt) })
	opts := DefaultClusterOptions()
	boxes, err := Cluster(f, f.Box, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(boxes) != 2 {
		t.Fatalf("got %d boxes, want 2: %v", len(boxes), boxes)
	}
	checkClustering(t, f, boxes, opts)
	// Each box should be tight around its blob.
	for _, bx := range boxes {
		if !bx.Equal(a) && !bx.Equal(b) {
			t.Errorf("box %v not tight (want %v or %v)", bx, a, b)
		}
	}
}

func TestClusterEmpty(t *testing.T) {
	f := NewFlagField(geom.Box2(0, 0, 15, 15))
	boxes, err := Cluster(f, f.Box, DefaultClusterOptions())
	if err != nil || boxes != nil {
		t.Errorf("empty cluster = %v, %v", boxes, err)
	}
}

func TestClusterRespectsMaxSide(t *testing.T) {
	f := NewFlagField(geom.Box2(0, 0, 63, 7))
	f.each(geom.Box2(0, 0, 63, 7), func(pt geom.Point) { f.Set(pt) })
	opts := DefaultClusterOptions()
	opts.MaxSide = 16
	boxes, err := Cluster(f, f.Box, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range boxes {
		if b.Size(b.LongestAxis()) > opts.MaxSide {
			t.Errorf("box %v exceeds MaxSide", b)
		}
	}
	checkClustering(t, f, boxes, opts)
}

func TestClusterRejectsBadOptions(t *testing.T) {
	f := NewFlagField(geom.Box2(0, 0, 7, 7))
	f.Set(geom.Pt2(1, 1))
	bad := []ClusterOptions{
		{Efficiency: 0, MinSide: 2},
		{Efficiency: 1.5, MinSide: 2},
		{Efficiency: 0.7, MinSide: 0},
		{Efficiency: 0.7, MinSide: 8, MaxSide: 4},
	}
	for _, opts := range bad {
		if _, err := Cluster(f, f.Box, opts); err == nil {
			t.Errorf("options %+v accepted", opts)
		}
	}
}

func TestQuickClusterInvariants(t *testing.T) {
	opts := ClusterOptions{Efficiency: 0.6, MinSide: 2}
	f := func(seed int64, nBlobs uint8) bool {
		r := rand.New(rand.NewSource(seed))
		fl := NewFlagField(geom.Box2(0, 0, 63, 63))
		for i := 0; i < 1+int(nBlobs)%5; i++ {
			x, y := r.Intn(56), r.Intn(56)
			w, h := 1+r.Intn(8), 1+r.Intn(8)
			fl.each(geom.Box2(x, y, x+w-1, y+h-1), func(pt geom.Point) { fl.Set(pt) })
		}
		boxes, err := Cluster(fl, fl.Box, opts)
		if err != nil {
			return false
		}
		if !boxes.Disjoint() {
			return false
		}
		covered := true
		fl.each(fl.Box, func(pt geom.Point) {
			if !fl.Get(pt) {
				return
			}
			for _, b := range boxes {
				if b.Contains(pt) {
					return
				}
			}
			covered = false
		})
		return covered
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestClusterEfficiencyReached(t *testing.T) {
	// Random scattered flags: accepted boxes should mostly meet the
	// efficiency target unless pinned by MinSide.
	r := rand.New(rand.NewSource(5))
	f := NewFlagField(geom.Box2(0, 0, 127, 127))
	for i := 0; i < 60; i++ {
		x, y := r.Intn(120), r.Intn(120)
		f.each(geom.Box2(x, y, x+3, y+3), func(pt geom.Point) { f.Set(pt) })
	}
	opts := ClusterOptions{Efficiency: 0.5, MinSide: 4}
	boxes, err := Cluster(f, f.Box, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkClustering(t, f, boxes, opts)
	for _, b := range boxes {
		eff := float64(f.countIn(b)) / float64(b.Cells())
		canCut := b.Size(b.LongestAxis()) >= 2*opts.MinSide
		if eff < opts.Efficiency && canCut {
			// The recursion only stops early on budget or un-cuttable
			// boxes; a cuttable inefficient accept indicates the cut
			// search failed to find any legal cut, which is possible but
			// should be rare — treat as failure if grossly inefficient.
			if eff < opts.Efficiency/2 {
				t.Errorf("box %v grossly inefficient: %.2f", b, eff)
			}
		}
	}
}
