package partition

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"samrpart/internal/capacity"
	"samrpart/internal/geom"
)

var paperCaps = []float64{0.16, 0.19, 0.31, 0.34}

// rmBoxList builds a hierarchy-shaped box list reminiscent of the RM3D
// kernel: a base grid plus refined boxes around two feature planes.
func rmBoxList() geom.BoxList {
	l := geom.BoxList{geom.Box3(0, 0, 0, 127, 31, 31)}
	// Level-1 boxes around x~40 and x~90 (refined space: 256x64x64).
	l = append(l,
		geom.Box3(64, 0, 0, 95, 63, 63).WithLevel(1),
		geom.Box3(160, 0, 0, 199, 63, 63).WithLevel(1),
	)
	// Level-2 boxes (refined space: 512x128x128).
	l = append(l,
		geom.Box3(150, 20, 20, 181, 99, 99).WithLevel(2),
		geom.Box3(340, 30, 30, 379, 89, 89).WithLevel(2),
	)
	return l
}

func TestWorkFuncs(t *testing.T) {
	b := geom.Box2(0, 0, 7, 7).WithLevel(2)
	if CellWork(b) != 64 {
		t.Error("CellWork wrong")
	}
	if SubcycledWork(2)(b) != 256 {
		t.Error("SubcycledWork wrong")
	}
}

func TestHeteroMatchesCapacities(t *testing.T) {
	h := NewHetero()
	work := SubcycledWork(2)
	a, err := h.Partition(rmBoxList(), paperCaps, work)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(rmBoxList(), work); err != nil {
		t.Fatal(err)
	}
	// Work tracks capacity: the paper reports residual imbalance below
	// ~40% under the splitting constraints.
	for k := range paperCaps {
		if imb := capacity.Imbalance(a.Work[k], a.Ideal[k]); imb > 40 {
			t.Errorf("node %d imbalance %.1f%% > 40%%", k, imb)
		}
	}
	// Ordering: higher-capacity nodes get more work.
	for k := 1; k < 4; k++ {
		if a.Work[k] < a.Work[k-1]*0.8 {
			t.Errorf("work not increasing with capacity: %v", a.Work)
		}
	}
}

func TestHeteroSplitsHugeBox(t *testing.T) {
	h := NewHetero()
	boxes := geom.BoxList{geom.Box3(0, 0, 0, 127, 31, 31)}
	a, err := h.Partition(boxes, paperCaps, CellWork)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(boxes, CellWork); err != nil {
		t.Fatal(err)
	}
	if len(a.Boxes) < 4 {
		t.Fatalf("single box should split into >= 4 parts, got %d", len(a.Boxes))
	}
	for _, b := range a.Boxes {
		for d := 0; d < b.Rank; d++ {
			if b.Size(d) < h.Constraints.MinBoxSize {
				t.Errorf("box %v violates MinBoxSize", b)
			}
		}
	}
	for k := range paperCaps {
		if imb := capacity.Imbalance(a.Work[k], a.Ideal[k]); imb > 40 {
			t.Errorf("node %d imbalance %.1f%%", k, imb)
		}
	}
	// Every node received something.
	for k := range paperCaps {
		if len(a.NodeBoxes(k)) == 0 {
			t.Errorf("node %d received no boxes", k)
		}
	}
}

func TestHeteroSplitKeepsAspectReasonable(t *testing.T) {
	h := NewHetero()
	// A long thin box: longest-axis splitting must not worsen aspect ratio.
	boxes := geom.BoxList{geom.Box3(0, 0, 0, 255, 7, 7)}
	startAR := boxes[0].AspectRatio()
	a, err := h.Partition(boxes, UniformCaps(8), CellWork)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range a.Boxes {
		if b.AspectRatio() > startAR+1e-9 {
			t.Errorf("split worsened aspect ratio: %v (%.1f > %.1f)", b, b.AspectRatio(), startAR)
		}
	}
}

func TestHeteroZeroCapacityNode(t *testing.T) {
	h := NewHetero()
	caps := []float64{0, 0.5, 0.5}
	boxes := geom.BoxList{geom.Box2(0, 0, 31, 31)}
	a, err := h.Partition(boxes, caps, CellWork)
	if err != nil {
		t.Fatal(err)
	}
	if a.Work[0] != 0 {
		t.Errorf("zero-capacity node got work %g", a.Work[0])
	}
	if err := a.Validate(boxes, CellWork); err != nil {
		t.Fatal(err)
	}
}

func TestHeteroSmallBoxesNoSplit(t *testing.T) {
	// Boxes already smaller than any quota: no splitting should occur.
	h := NewHetero()
	var boxes geom.BoxList
	for i := 0; i < 16; i++ {
		x := i * 4
		boxes = append(boxes, geom.Box2(x, 0, x+3, 3))
	}
	a, err := h.Partition(boxes, UniformCaps(4), CellWork)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Boxes) != 16 {
		t.Errorf("boxes were split unnecessarily: %d != 16", len(a.Boxes))
	}
	for k := 0; k < 4; k++ {
		if a.Work[k] != 64 {
			t.Errorf("node %d work = %g, want 64", k, a.Work[k])
		}
	}
}

func TestHeteroDeterministic(t *testing.T) {
	h := NewHetero()
	boxes := rmBoxList()
	a1, _ := h.Partition(boxes, paperCaps, CellWork)
	a2, _ := h.Partition(boxes, paperCaps, CellWork)
	if len(a1.Boxes) != len(a2.Boxes) {
		t.Fatal("non-deterministic box count")
	}
	for i := range a1.Boxes {
		if !a1.Boxes[i].Equal(a2.Boxes[i]) || a1.Owners[i] != a2.Owners[i] {
			t.Fatal("non-deterministic assignment")
		}
	}
}

func TestCompositeEqualShares(t *testing.T) {
	c := NewComposite(2)
	work := SubcycledWork(2)
	boxes := rmBoxList()
	a, err := c.Partition(boxes, paperCaps, work)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(boxes, work); err != nil {
		t.Fatal(err)
	}
	// Equal split regardless of capacity.
	total := a.TotalWork()
	for k := 0; k < 4; k++ {
		if dev := math.Abs(a.Work[k]-total/4) / (total / 4); dev > 0.4 {
			t.Errorf("node %d deviates %.0f%% from equal share", k, dev*100)
		}
	}
	// Ideal records capacity shares, so imbalance vs capacities is large
	// for the most skewed node (C_0 = 16% receiving ~25%).
	if imb := capacity.Imbalance(a.Work[0], a.Ideal[0]); imb < 20 {
		t.Errorf("default partitioner imbalance suspiciously low: %.1f%%", imb)
	}
}

func TestCompositeVsHeteroImbalance(t *testing.T) {
	// The paper's headline comparison: the system-sensitive scheme's
	// imbalance is far below the default's on a heterogeneous cluster.
	boxes := rmBoxList()
	work := SubcycledWork(2)
	ha, err := NewHetero().Partition(boxes, paperCaps, work)
	if err != nil {
		t.Fatal(err)
	}
	ca, err := NewComposite(2).Partition(boxes, paperCaps, work)
	if err != nil {
		t.Fatal(err)
	}
	if ha.MaxImbalance() >= ca.MaxImbalance() {
		t.Errorf("hetero imbalance %.1f%% not below default %.1f%%",
			ha.MaxImbalance(), ca.MaxImbalance())
	}
}

func TestCompositeLocality(t *testing.T) {
	// Neighboring boxes should land on the same node more often than
	// random: check that each node's boxes form few connected clumps by
	// verifying the partition of a strip of boxes is contiguous runs.
	c := NewComposite(2)
	var boxes geom.BoxList
	for i := 0; i < 16; i++ {
		boxes = append(boxes, geom.Box2(i*8, 0, i*8+7, 7))
	}
	a, err := c.Partition(boxes, UniformCaps(4), CellWork)
	if err != nil {
		t.Fatal(err)
	}
	// Sort assigned boxes by x and count owner changes; a locality
	// preserving order yields exactly 3 changes for 4 nodes.
	type ob struct {
		x     int
		owner int
	}
	var obs []ob
	for i, b := range a.Boxes {
		obs = append(obs, ob{b.Lo[0], a.Owners[i]})
	}
	for i := 0; i < len(obs); i++ {
		for j := i + 1; j < len(obs); j++ {
			if obs[j].x < obs[i].x {
				obs[i], obs[j] = obs[j], obs[i]
			}
		}
	}
	changes := 0
	for i := 1; i < len(obs); i++ {
		if obs[i].owner != obs[i-1].owner {
			changes++
		}
	}
	if changes > 3 {
		t.Errorf("SFC order not contiguous: %d owner changes (want 3)", changes)
	}
}

func TestGreedyAndRoundRobinValid(t *testing.T) {
	boxes := rmBoxList()
	work := SubcycledWork(2)
	for _, p := range []Partitioner{Greedy{}, RoundRobin{}} {
		a, err := p.Partition(boxes, paperCaps, work)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if err := a.Validate(boxes, work); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if len(a.Boxes) != len(boxes) {
			t.Errorf("%s split boxes but must not", p.Name())
		}
	}
}

func TestGreedyTracksCapacity(t *testing.T) {
	// Many equal boxes: greedy should land near capacity shares.
	var boxes geom.BoxList
	for i := 0; i < 100; i++ {
		x := (i % 10) * 8
		y := (i / 10) * 8
		boxes = append(boxes, geom.Box2(x, y, x+7, y+7))
	}
	a, err := Greedy{}.Partition(boxes, paperCaps, CellWork)
	if err != nil {
		t.Fatal(err)
	}
	if imb := a.MaxImbalance(); imb > 15 {
		t.Errorf("greedy imbalance %.1f%% with fine granularity", imb)
	}
}

func TestInputValidation(t *testing.T) {
	boxes := geom.BoxList{geom.Box2(0, 0, 7, 7)}
	cases := []struct {
		name  string
		boxes geom.BoxList
		caps  []float64
	}{
		{"no nodes", boxes, nil},
		{"bad sum", boxes, []float64{0.5, 0.6}},
		{"negative", boxes, []float64{1.2, -0.2}},
		{"empty box", geom.BoxList{{Rank: 2, Lo: geom.Pt2(1, 1), Hi: geom.Pt2(0, 0)}}, UniformCaps(2)},
	}
	for _, p := range []Partitioner{NewHetero(), NewComposite(2), Greedy{}, RoundRobin{}} {
		for _, c := range cases {
			if _, err := p.Partition(c.boxes, c.caps, CellWork); err == nil {
				t.Errorf("%s accepted %s", p.Name(), c.name)
			}
		}
	}
	bad := NewHetero()
	bad.Constraints.MinBoxSize = 0
	if _, err := bad.Partition(boxes, UniformCaps(2), CellWork); err == nil {
		t.Error("invalid constraints accepted")
	}
}

func TestEmptyBoxListOK(t *testing.T) {
	a, err := NewHetero().Partition(nil, UniformCaps(3), CellWork)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Boxes) != 0 || a.TotalWork() != 0 {
		t.Error("empty list should yield empty assignment")
	}
}

func TestSplitAllAxesAblation(t *testing.T) {
	// The §8 extension: multi-axis splitting can only improve fit.
	boxes := geom.BoxList{geom.Box3(0, 0, 0, 31, 31, 31)}
	caps := []float64{0.05, 0.15, 0.35, 0.45}
	longest := NewHetero()
	all := NewHetero()
	all.Constraints.SplitAllAxes = true
	la, err := longest.Partition(boxes, caps, CellWork)
	if err != nil {
		t.Fatal(err)
	}
	aa, err := all.Partition(boxes, caps, CellWork)
	if err != nil {
		t.Fatal(err)
	}
	if err := aa.Validate(boxes, CellWork); err != nil {
		t.Fatal(err)
	}
	if aa.MaxImbalance() > la.MaxImbalance()+25 {
		t.Errorf("all-axes splitting much worse than longest-axis: %.1f vs %.1f",
			aa.MaxImbalance(), la.MaxImbalance())
	}
}

func TestMaxSplitsPerBoxRespected(t *testing.T) {
	h := NewHetero()
	h.Constraints.maxSplitsPerBox = 1
	boxes := geom.BoxList{geom.Box3(0, 0, 0, 127, 31, 31)}
	a, err := h.Partition(boxes, UniformCaps(8), CellWork)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(boxes, CellWork); err != nil {
		t.Fatal(err)
	}
	// One original box with at most 1 split generation: <= 3 pieces
	// (the split parts may themselves be assigned whole).
	if len(a.Boxes) > 3 {
		t.Errorf("MaxSplitsPerBox=1 produced %d pieces", len(a.Boxes))
	}
}

func TestQuickPartitionInvariants(t *testing.T) {
	work := SubcycledWork(2)
	partitioners := []Partitioner{NewHetero(), NewComposite(2), NewSFCHetero(2), NewLevelWise(2)}
	f := func(seed int64, nNodes, nBoxes uint8) bool {
		r := rand.New(rand.NewSource(seed))
		k := 2 + int(nNodes)%14
		// Random normalized capacities.
		caps := make([]float64, k)
		sum := 0.0
		for i := range caps {
			caps[i] = 0.05 + r.Float64()
			sum += caps[i]
		}
		for i := range caps {
			caps[i] /= sum
		}
		// Random box list across 3 levels; boxes of a level occupy
		// disjoint x-strips, as real hierarchy levels are disjoint.
		var boxes geom.BoxList
		n := 1 + int(nBoxes)%20
		strip := make([]int, 3)
		for i := 0; i < n; i++ {
			lvl := r.Intn(3)
			x := strip[lvl] * 40
			strip[lvl]++
			y, z := r.Intn(28), r.Intn(28)
			w, h, d := 4+r.Intn(28), 4+r.Intn(8), 4+r.Intn(8)
			boxes = append(boxes, geom.Box3(x, y, z, x+w-1, y+h-1, z+d-1).WithLevel(lvl))
		}
		for _, p := range partitioners {
			a, err := p.Partition(boxes, caps, work)
			if err != nil {
				return false
			}
			if err := a.Validate(boxes, work); err != nil {
				return false
			}
			// Work conservation.
			total := 0.0
			for _, b := range boxes {
				total += work(b)
			}
			if math.Abs(a.TotalWork()-total) > 1e-6*total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestNodeBoxesAndOwner(t *testing.T) {
	a, _ := NewHetero().Partition(rmBoxList(), paperCaps, CellWork)
	count := 0
	for k := 0; k < 4; k++ {
		count += len(a.NodeBoxes(k))
	}
	if count != len(a.Boxes) {
		t.Error("NodeBoxes do not partition the box set")
	}
}
