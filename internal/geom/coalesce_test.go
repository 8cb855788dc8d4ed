package geom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCoalesceAdjacentPair(t *testing.T) {
	l := BoxList{Box2(0, 0, 3, 7), Box2(4, 0, 7, 7)}
	out := CoalesceBounded(l, 0)
	if len(out) != 1 || !out[0].Equal(Box2(0, 0, 7, 7)) {
		t.Errorf("Coalesce = %v", out)
	}
}

func TestCoalesceChain(t *testing.T) {
	// Four quarters of a square, split both ways: coalesces fully.
	l := BoxList{
		Box2(0, 0, 3, 3), Box2(4, 0, 7, 3),
		Box2(0, 4, 3, 7), Box2(4, 4, 7, 7),
	}
	out := CoalesceBounded(l, 0)
	if len(out) != 1 || !out[0].Equal(Box2(0, 0, 7, 7)) {
		t.Errorf("Coalesce = %v", out)
	}
}

func TestCoalesceRespectsLevelsAndShape(t *testing.T) {
	l := BoxList{
		Box2(0, 0, 3, 3),
		Box2(4, 0, 7, 3).WithLevel(1), // different level: no merge
		Box2(1, 4, 3, 7),              // different x extent: union not a box
	}
	out := CoalesceBounded(l, 0)
	if len(out) != 3 {
		t.Errorf("Coalesce merged unmergeable boxes: %v", out)
	}
	// Diagonal neighbors never merge.
	diag := BoxList{Box2(0, 0, 3, 3), Box2(4, 4, 7, 7)}
	if len(CoalesceBounded(diag, 0)) != 2 {
		t.Error("diagonal boxes merged")
	}
	// Gap on the merge axis: no merge.
	gap := BoxList{Box2(0, 0, 3, 3), Box2(5, 0, 8, 3)}
	if len(CoalesceBounded(gap, 0)) != 2 {
		t.Error("non-adjacent boxes merged")
	}
}

func TestCoalesce3D(t *testing.T) {
	l := BoxList{
		Box3(0, 0, 0, 7, 7, 3),
		Box3(0, 0, 4, 7, 7, 7),
	}
	out := CoalesceBounded(l, 0)
	if len(out) != 1 || !out[0].Equal(Box3(0, 0, 0, 7, 7, 7)) {
		t.Errorf("3D Coalesce = %v", out)
	}
}

func TestCoalesceBounded(t *testing.T) {
	l := BoxList{Box2(0, 0, 7, 3), Box2(8, 0, 15, 3), Box2(16, 0, 23, 3)}
	// Unbounded: everything merges into one 24-long box.
	if out := CoalesceBounded(l, 0); len(out) != 1 {
		t.Errorf("unbounded = %v", out)
	}
	// Bound 16: only one pair can merge.
	out := CoalesceBounded(l, 16)
	if len(out) != 2 {
		t.Fatalf("bounded = %v", out)
	}
	for _, b := range out {
		if b.Size(b.LongestAxis()) > 16 {
			t.Errorf("bound violated: %v", b)
		}
	}
	if out.TotalCells() != l.TotalCells() {
		t.Error("bounded coalesce changed coverage")
	}
	// Bound smaller than existing boxes: nothing merges, nothing breaks.
	if out := CoalesceBounded(l, 4); len(out) != 3 {
		t.Errorf("tight bound = %v", out)
	}
}

func TestCoalesceEmpty(t *testing.T) {
	if out := CoalesceBounded(nil, 0); len(out) != 0 {
		t.Error("CoalesceBounded(nil, 0) not empty")
	}
}

func TestQuickCoalescePreservesCoverage(t *testing.T) {
	f := func(seed int64, cuts uint8) bool {
		// Start from one box, split it repeatedly, shuffle, coalesce:
		// cells must be preserved and the result disjoint.
		r := rand.New(rand.NewSource(seed))
		parts := BoxList{Box3(0, 0, 0, 31, 15, 15)}
		for c := 0; c < 2+int(cuts)%6; c++ {
			i := r.Intn(len(parts))
			b := parts[i]
			d := b.LongestAxis()
			if b.Size(d) < 2 {
				continue
			}
			at := b.Lo[d] + 1 + r.Intn(b.Size(d)-1)
			lo, hi := b.Split(d, at)
			parts[i] = lo
			parts = append(parts, hi)
		}
		r.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
		before := parts.TotalCells()
		out := CoalesceBounded(parts, 0)
		if out.TotalCells() != before {
			return false
		}
		if !out.Disjoint() {
			return false
		}
		return len(out) <= len(parts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
