// Package hdda implements the core of GrACE's Hierarchical Distributed
// Dynamic Array (HDDA) substrate: a hierarchical index space derived from a
// space-filling curve (index locality = spatial locality) and an extendible
// hash directory (Fagin 1979) providing dynamic storage that grows with the
// grid hierarchy.
//
// The HDDA stores one entry per component-grid patch, keyed by (level, SFC
// index).
package hdda

import (
	"fmt"
)

// bucketCap is the number of entries an extendible-hash bucket holds before
// splitting. Small enough to exercise directory growth in tests, large
// enough to keep the directory shallow for realistic hierarchies.
const bucketCap = 8

// maxGlobalDepth bounds directory doubling; 2^24 directory slots is far
// beyond any realistic hierarchy and guards pathological hash behaviour.
const maxGlobalDepth = 24

type entry[V any] struct {
	key   uint64
	value V
}

type bucket[V any] struct {
	localDepth int
	entries    []entry[V]
}

// directory is an extendible hash table from uint64 keys to values of type
// V. The zero value is not usable; call NewDirectory.
type directory[V any] struct {
	globalDepth int
	buckets     []*bucket[V] // len == 1<<globalDepth
	size        int
}

// newDirectory returns an empty extendible hash directory.
func newDirectory[V any]() *directory[V] {
	b := &bucket[V]{localDepth: 0}
	return &directory[V]{globalDepth: 0, buckets: []*bucket[V]{b}}
}

// hash mixes the key; splitmix64 finalizer gives well-distributed low bits,
// which extendible hashing uses as the directory index.
func hash(k uint64) uint64 {
	k += 0x9e3779b97f4a7c15
	k = (k ^ (k >> 30)) * 0xbf58476d1ce4e5b9
	k = (k ^ (k >> 27)) * 0x94d049bb133111eb
	return k ^ (k >> 31)
}

func (d *directory[V]) slot(k uint64) int {
	return int(hash(k) & (1<<uint(d.globalDepth) - 1))
}

// Get returns the value stored under key.
func (d *directory[V]) Get(key uint64) (V, bool) {
	b := d.buckets[d.slot(key)]
	for _, e := range b.entries {
		if e.key == key {
			return e.value, true
		}
	}
	var zero V
	return zero, false
}

// Put stores value under key, replacing any existing entry.
func (d *directory[V]) Put(key uint64, value V) {
	for {
		b := d.buckets[d.slot(key)]
		for i := range b.entries {
			if b.entries[i].key == key {
				b.entries[i].value = value
				return
			}
		}
		if len(b.entries) < bucketCap {
			b.entries = append(b.entries, entry[V]{key, value})
			d.size++
			return
		}
		if !d.split(b) {
			// Cannot split further (all keys share the bottom bits up to
			// maxGlobalDepth); overflow the bucket rather than fail.
			b.entries = append(b.entries, entry[V]{key, value})
			d.size++
			return
		}
	}
}

// Range calls fn for every (key, value) pair until fn returns false.
// Iteration order is unspecified.
func (d *directory[V]) Range(fn func(key uint64, value V) bool) {
	seen := make(map[*bucket[V]]bool)
	for _, b := range d.buckets {
		if seen[b] {
			continue
		}
		seen[b] = true
		for _, e := range b.entries {
			if !fn(e.key, e.value) {
				return
			}
		}
	}
}

// split divides an overflowing bucket, doubling the directory if the bucket
// is already at global depth. Returns false when the directory refuses to
// grow past maxGlobalDepth.
func (d *directory[V]) split(b *bucket[V]) bool {
	if b.localDepth == d.globalDepth {
		if d.globalDepth >= maxGlobalDepth {
			return false
		}
		// Double the directory; each new slot mirrors its lower half twin.
		old := d.buckets
		d.buckets = make([]*bucket[V], 2*len(old))
		copy(d.buckets, old)
		copy(d.buckets[len(old):], old)
		d.globalDepth++
	}
	// Split b into two buckets distinguished by the bit at localDepth.
	newDepth := b.localDepth + 1
	bit := uint64(1) << uint(b.localDepth)
	low := &bucket[V]{localDepth: newDepth}
	high := &bucket[V]{localDepth: newDepth}
	for _, e := range b.entries {
		if hash(e.key)&bit != 0 {
			high.entries = append(high.entries, e)
		} else {
			low.entries = append(low.entries, e)
		}
	}
	// Re-point every directory slot that referenced b.
	for i := range d.buckets {
		if d.buckets[i] == b {
			if uint64(i)&bit != 0 {
				d.buckets[i] = high
			} else {
				d.buckets[i] = low
			}
		}
	}
	return true
}

// checkInvariants validates directory structure; used by tests.
func (d *directory[V]) checkInvariants() error {
	if len(d.buckets) != 1<<uint(d.globalDepth) {
		return fmt.Errorf("directory has %d slots, want %d", len(d.buckets), 1<<uint(d.globalDepth))
	}
	count := 0
	seen := make(map[*bucket[V]][]int)
	for i, b := range d.buckets {
		if b == nil {
			return fmt.Errorf("nil bucket at slot %d", i)
		}
		seen[b] = append(seen[b], i)
	}
	for b, slots := range seen {
		if b.localDepth > d.globalDepth {
			return fmt.Errorf("bucket localDepth %d > globalDepth %d", b.localDepth, d.globalDepth)
		}
		if want := 1 << uint(d.globalDepth-b.localDepth); len(slots) != want {
			return fmt.Errorf("bucket at depth %d referenced by %d slots, want %d", b.localDepth, len(slots), want)
		}
		// All slots pointing at b agree on the low localDepth bits.
		mask := uint64(1)<<uint(b.localDepth) - 1
		prefix := uint64(slots[0]) & mask
		for _, s := range slots {
			if uint64(s)&mask != prefix {
				return fmt.Errorf("inconsistent slot prefixes for bucket (slots %v, depth %d)", slots, b.localDepth)
			}
		}
		// All entries hash into this prefix.
		for _, e := range b.entries {
			if hash(e.key)&mask != prefix {
				return fmt.Errorf("entry key %d misfiled (hash prefix mismatch)", e.key)
			}
		}
		count += len(b.entries)
	}
	if count != d.size {
		return fmt.Errorf("size %d != counted entries %d", d.size, count)
	}
	return nil
}
