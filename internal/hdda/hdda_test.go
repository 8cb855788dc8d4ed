package hdda

import (
	"math/rand"
	"testing"
	"testing/quick"

	"samrpart/internal/geom"
	"samrpart/internal/sfc"
)

func TestDirectoryBasic(t *testing.T) {
	d := newDirectory[string]()
	if _, ok := d.Get(42); ok {
		t.Error("empty directory returned a value")
	}
	d.Put(42, "a")
	d.Put(43, "b")
	if v, ok := d.Get(42); !ok || v != "a" {
		t.Errorf("Get(42) = %q,%v", v, ok)
	}
	d.Put(42, "c") // replace
	if v, _ := d.Get(42); v != "c" {
		t.Errorf("replace failed: %q", v)
	}
	if d.size != 2 {
		t.Errorf("size = %d, want 2", d.size)
	}
}

func TestDirectoryGrowth(t *testing.T) {
	d := newDirectory[int]()
	const n = 10000
	for i := 0; i < n; i++ {
		d.Put(uint64(i)*2654435761, i)
	}
	if d.size != n {
		t.Fatalf("size = %d, want %d", d.size, n)
	}
	if d.globalDepth == 0 {
		t.Error("directory never grew")
	}
	if err := d.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if v, ok := d.Get(uint64(i) * 2654435761); !ok || v != i {
			t.Fatalf("lost key %d", i)
		}
	}
}

func TestDirectoryRange(t *testing.T) {
	d := newDirectory[int]()
	for i := 0; i < 100; i++ {
		d.Put(uint64(i), i)
	}
	sum := 0
	d.Range(func(_ uint64, v int) bool { sum += v; return true })
	if sum != 4950 {
		t.Errorf("Range sum = %d, want 4950", sum)
	}
	count := 0
	d.Range(func(_ uint64, _ int) bool { count++; return count < 10 })
	if count != 10 {
		t.Errorf("early-exit Range visited %d", count)
	}
}

func TestQuickDirectoryModel(t *testing.T) {
	// Model-check against a plain map under random operation sequences.
	f := func(ops []uint16, seed int64) bool {
		d := newDirectory[uint16]()
		model := make(map[uint64]uint16)
		r := rand.New(rand.NewSource(seed))
		for _, op := range ops {
			key := uint64(op % 64) // small key space forces collisions
			switch r.Intn(2) {
			case 0:
				d.Put(key, op)
				model[key] = op
			case 1:
				v, ok := d.Get(key)
				mv, mok := model[key]
				if ok != mok || (ok && v != mv) {
					return false
				}
			}
		}
		if d.size != len(model) {
			return false
		}
		return d.checkInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestKeyPackUnpack(t *testing.T) {
	cases := []key{
		{Level: 0, Index: 0},
		{Level: 3, Index: 12345},
		{Level: maxLevel, Index: 1<<(64-levelBits) - 1},
	}
	for _, k := range cases {
		p := k.packed()
		if level, index := int(p>>(64-levelBits)), p&(1<<(64-levelBits)-1); level != k.Level || index != k.Index {
			t.Errorf("Packed(%+v) = %#x holds level %d, index %d", k, p, level, index)
		}
	}
	// Packed keys order by (level, index).
	a := key{Level: 1, Index: 1 << 40}.packed()
	b := key{Level: 2, Index: 0}.packed()
	if a >= b {
		t.Error("packed keys do not order by level first")
	}
}

func TestKeyPackedPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Packed should panic for level > MaxLevel")
		}
	}()
	key{Level: maxLevel + 1}.packed()
}

func newTestSpace() *IndexSpace {
	return NewIndexSpace(sfc.Hilbert{}, geom.Box3(0, 0, 0, 127, 31, 31), 2)
}

func TestArrayPutGetDelete(t *testing.T) {
	a := NewArray[int](newTestSpace())
	b1 := geom.Box3(0, 0, 0, 7, 7, 7)
	b2 := geom.Box3(8, 0, 0, 15, 7, 7)
	b3 := b1.Refine(2) // same region, level 1
	a.Put(b1, 1)
	a.Put(b2, 2)
	a.Put(b3, 3)
	if a.count != 3 {
		t.Fatalf("count = %d", a.count)
	}
	for _, c := range []struct {
		b    geom.Box
		want int
	}{{b1, 1}, {b2, 2}, {b3, 3}} {
		if v, ok := a.Get(c.b); !ok || v != c.want {
			t.Errorf("Get(%v) = %d,%v want %d", c.b, v, ok, c.want)
		}
	}
	a.Put(b1, 10) // replace
	if v, _ := a.Get(b1); v != 10 {
		t.Error("replace failed")
	}
	if a.count != 3 {
		t.Error("replace changed count")
	}
}

func TestArrayCollidingKeys(t *testing.T) {
	// Two boxes whose centroids coarsen to the same base cell share a key;
	// the array must still distinguish them.
	a := NewArray[string](newTestSpace())
	coarse := geom.Box3(4, 4, 4, 5, 5, 5)
	fine := geom.Box3(8, 8, 8, 11, 11, 11).WithLevel(1) // centroid (9,9,9)->(4,4,4) at L0
	k1 := a.Space().keyFor(coarse)
	k2 := a.Space().keyFor(fine)
	if k1.Index != k2.Index {
		t.Skip("test construction assumption changed")
	}
	a.Put(coarse, "coarse")
	a.Put(fine, "fine")
	if v, _ := a.Get(coarse); v != "coarse" {
		t.Error("coarse entry lost")
	}
	if v, _ := a.Get(fine); v != "fine" {
		t.Error("fine entry lost")
	}
}

func TestQuickArrayRoundTrip(t *testing.T) {
	space := newTestSpace()
	f := func(coords []uint8) bool {
		a := NewArray[int](space)
		model := make(map[geom.Box]int)
		for i := 0; i+2 < len(coords); i += 3 {
			x, y, z := int(coords[i]%120), int(coords[i+1]%24), int(coords[i+2]%24)
			b := geom.Box3(x, y, z, x+3, y+3, z+3)
			a.Put(b, i)
			model[b] = i
		}
		if a.count != len(model) {
			return false
		}
		for b, want := range model {
			if v, ok := a.Get(b); !ok || v != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
