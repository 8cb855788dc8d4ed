package partition

import (
	"math"
	"testing"

	"samrpart/internal/capacity"
	"samrpart/internal/geom"
)

func TestSFCHeteroMatchesCapacities(t *testing.T) {
	p := NewSFCHetero(2)
	work := SubcycledWork(2)
	a, err := p.Partition(rmBoxList(), paperCaps, work)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(rmBoxList(), work); err != nil {
		t.Fatal(err)
	}
	for k := range paperCaps {
		if imb := capacity.Imbalance(a.Work[k], a.Ideal[k]); imb > 40 {
			t.Errorf("node %d imbalance %.1f%%", k, imb)
		}
	}
}

func TestSFCHeteroContiguity(t *testing.T) {
	// A strip of equal boxes: curve order along x, so each node's boxes
	// must form one contiguous run.
	var boxes geom.BoxList
	for i := 0; i < 16; i++ {
		boxes = append(boxes, geom.Box2(i*8, 0, i*8+7, 7))
	}
	p := NewSFCHetero(2)
	a, err := p.Partition(boxes, UniformCaps(4), CellWork)
	if err != nil {
		t.Fatal(err)
	}
	type ob struct{ x, owner int }
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
		t.Errorf("SFCHetero order not contiguous: %d owner changes", changes)
	}
}

func TestSFCHeteroStability(t *testing.T) {
	// Affinity: a small capacity perturbation should barely move the
	// assignment, unlike the size-sorted scheme whose order is global.
	var boxes geom.BoxList
	for i := 0; i < 32; i++ {
		boxes = append(boxes, geom.Box2(i*8, 0, i*8+7, 7))
	}
	p := NewSFCHetero(2)
	caps1 := []float64{0.25, 0.25, 0.25, 0.25}
	caps2 := []float64{0.24, 0.26, 0.25, 0.25}
	a1, err := p.Partition(boxes, caps1, CellWork)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := p.Partition(boxes, caps2, CellWork)
	if err != nil {
		t.Fatal(err)
	}
	// Count cells that changed owner (match regions by overlap).
	var moved int64
	for i, b1 := range a1.Boxes {
		for j, b2 := range a2.Boxes {
			if b1.Level != b2.Level || a1.Owners[i] == a2.Owners[j] {
				continue
			}
			moved += b1.Intersect(b2).Cells()
		}
	}
	total := boxes.TotalCells()
	if frac := float64(moved) / float64(total); frac > 0.15 {
		t.Errorf("%.0f%% of cells moved for a 1%% capacity change", frac*100)
	}
}

func TestLevelWiseBalancesEachLevel(t *testing.T) {
	p := NewLevelWise(2)
	work := SubcycledWork(2)
	boxes := rmBoxList()
	a, err := p.Partition(boxes, paperCaps, work)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(boxes, work); err != nil {
		t.Fatal(err)
	}
	// Per-level work of each node tracks its capacity share of that level.
	for lev := 0; lev <= 2; lev++ {
		lvlTotal := 0.0
		perNode := make([]float64, 4)
		for i, b := range a.Boxes {
			if b.Level != lev {
				continue
			}
			w := work(b)
			lvlTotal += w
			perNode[a.Owners[i]] += w
		}
		if lvlTotal == 0 {
			continue
		}
		for k := range perNode {
			ideal := paperCaps[k] * lvlTotal
			if ideal == 0 {
				continue
			}
			if dev := math.Abs(perNode[k]-ideal) / ideal; dev > 0.5 {
				t.Errorf("level %d node %d deviates %.0f%% from its level share",
					lev, k, dev*100)
			}
		}
	}
	// Overall balance follows too.
	if a.MaxImbalance() > 40 {
		t.Errorf("overall imbalance %.1f%%", a.MaxImbalance())
	}
}

func TestLevelWiseEmptyAndErrors(t *testing.T) {
	p := NewLevelWise(2)
	a, err := p.Partition(nil, UniformCaps(2), CellWork)
	if err != nil || len(a.Boxes) != 0 {
		t.Errorf("empty list: %v, %d boxes", err, len(a.Boxes))
	}
	if _, err := p.Partition(geom.BoxList{geom.Box2(0, 0, 3, 3)}, []float64{0.7, 0.7}, CellWork); err == nil {
		t.Error("bad capacities accepted")
	}
	bad := NewLevelWise(2)
	bad.constraints.MinBoxSize = 0
	if _, err := bad.Partition(geom.BoxList{geom.Box2(0, 0, 3, 3)}, UniformCaps(2), CellWork); err == nil {
		t.Error("bad constraints accepted")
	}
}

func TestSFCHeteroErrors(t *testing.T) {
	p := NewSFCHetero(2)
	if _, err := p.Partition(geom.BoxList{geom.Box2(0, 0, 3, 3)}, nil, CellWork); err == nil {
		t.Error("no nodes accepted")
	}
	bad := NewSFCHetero(2)
	bad.constraints.MinBoxSize = -1
	if _, err := bad.Partition(geom.BoxList{geom.Box2(0, 0, 3, 3)}, UniformCaps(2), CellWork); err == nil {
		t.Error("bad constraints accepted")
	}
	// Empty list fine.
	if a, err := p.Partition(nil, UniformCaps(3), CellWork); err != nil || a.TotalWork() != 0 {
		t.Error("empty list mishandled")
	}
}

func TestNewPartitionersNames(t *testing.T) {
	if NewSFCHetero(2).Name() != "SFCHetero" || NewLevelWise(2).Name() != "LevelWise" {
		t.Error("names wrong")
	}
}
