package hdda

import (
	"samrpart/internal/geom"
)

// patch is one stored component-grid entry. Several distinct boxes can share
// a hierarchical key (their centroids coarsen to the same base cell), so the
// directory stores a small list per key and Array disambiguates by box.
type patch[V any] struct {
	box geom.Box
	val V
}

// Array is the Hierarchical Distributed Dynamic Array: a dynamic associative
// array over component-grid boxes whose storage layout follows the
// hierarchical SFC index space. It provides the array semantics GrACE layers
// application objects (grids, meshes) on top of.
type Array[V any] struct {
	space *IndexSpace
	dir   *directory[[]patch[V]]
	count int
}

// NewArray creates an empty HDDA over the given index space.
func NewArray[V any](space *IndexSpace) *Array[V] {
	return &Array[V]{space: space, dir: newDirectory[[]patch[V]]()}
}

// Space returns the array's hierarchical index space.
func (a *Array[V]) Space() *IndexSpace { return a.space }

// Put stores v under box b, replacing an existing entry for the same box.
func (a *Array[V]) Put(b geom.Box, v V) {
	key := a.space.keyFor(b).packed()
	list, _ := a.dir.Get(key)
	for i := range list {
		if list[i].box.Equal(b) {
			list[i].val = v
			a.dir.Put(key, list)
			return
		}
	}
	a.dir.Put(key, append(list, patch[V]{box: b, val: v}))
	a.count++
}

// Get returns the value stored for box b.
func (a *Array[V]) Get(b geom.Box) (V, bool) {
	key := a.space.keyFor(b).packed()
	list, ok := a.dir.Get(key)
	if ok {
		for _, p := range list {
			if p.box.Equal(b) {
				return p.val, true
			}
		}
	}
	var zero V
	return zero, false
}

// Range calls fn for every (box, value) pair until fn returns false.
func (a *Array[V]) Range(fn func(b geom.Box, v V) bool) {
	a.dir.Range(func(_ uint64, list []patch[V]) bool {
		for _, p := range list {
			if !fn(p.box, p.val) {
				return false
			}
		}
		return true
	})
}
