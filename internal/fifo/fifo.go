// Package fifo is a map with a fixed capacity that forgets its oldest
// insertion first.
//
// FIFO eviction suits the caches that use it: a duplicate frame, a retried
// submission or a repeated conduit lookup arrives within a short burst of
// the first, so forgetting by age needs no per-hit bookkeeping and behaves
// like LRU at these capacities.
package fifo

// Map maps uint64 keys to values of type V and holds at most its capacity of
// them. It is not safe for concurrent use.
type Map[V any] struct {
	cap  int
	m    map[uint64]V
	ring []uint64 // keys in insertion order, from slot next
	next int      // ring slot the next insertion overwrites once full
}

// New returns an empty Map that holds at most capacity keys, which must be
// at least 1. The map is sized for capacity up front.
func New[V any](capacity int) *Map[V] {
	return &Map[V]{cap: capacity, m: make(map[uint64]V, capacity)}
}

// Get returns the value stored under k and whether k is present.
func (f *Map[V]) Get(k uint64) (V, bool) {
	v, ok := f.m[k]
	return v, ok
}

// Put stores v under k. A present key is overwritten in place and keeps its
// age; a new key evicts the oldest insertion when the map is full.
func (f *Map[V]) Put(k uint64, v V) {
	if _, ok := f.m[k]; !ok {
		if len(f.ring) < f.cap {
			f.ring = append(f.ring, k)
		} else {
			delete(f.m, f.ring[f.next])
			f.ring[f.next] = k
			f.next = (f.next + 1) % f.cap
		}
	}
	f.m[k] = v
}

// Len returns the number of keys held, never more than the capacity.
func (f *Map[V]) Len() int { return len(f.m) }
