// Package fifo is a map with a fixed capacity that forgets its oldest
// insertion first.
//
// FIFO eviction suits the sets that use it: a duplicate frame, a replayed
// frame or a retried submission arrives within a short burst of the first,
// so forgetting by age needs no per-hit bookkeeping and behaves like LRU at
// these capacities.
//
// A Map is an open-addressed table with linear probing that grows by
// doubling as keys arrive, up to twice its capacity: an idle Map holds no
// table, and a full set (V = struct{}) costs about 24 bytes a key.
// Eviction deletes by backward shift: the table holds no tombstones and
// never rehashes at a steady size.
package fifo

import (
	"math/rand/v2"

	"citymesh/internal/splitmix"
)

// minSlots is the table size of a Map's first insertion.
const minSlots = 8

// Map maps uint64 keys to values of type V and holds at most its capacity of
// them. It is not safe for concurrent use.
type Map[V any] struct {
	cap int
	// seed keys the probe hash, so a sender who does not know it cannot
	// choose keys that pile into one probe run. It moves only where a key
	// sits in the table, never what the Map holds or evicts.
	seed uint64
	// slots is a power-of-two table, at least twice the keys it holds; key
	// 0 marks an empty slot.
	slots []slot[V]
	n     int // keys in slots
	// Key 0 is held outside the table.
	hasZero bool
	zero    V
	ring    []uint64 // keys in insertion order, from slot next
	next    int      // ring slot the next insertion overwrites once full
}

// slot puts the value first: a zero-size V then adds no padding, so a set
// (V = struct{}) costs 8 bytes a slot.
type slot[V any] struct {
	val V
	key uint64
}

// New returns an empty Map that holds at most capacity keys, which must be
// at least 1. It allocates no table until the first insertion and grows with
// the keys it holds.
func New[V any](capacity int) *Map[V] {
	return &Map[V]{cap: capacity, seed: rand.Uint64()}
}

// hash mixes k with a Map's seed through the splitmix64 finalizer. It is a
// plain function, not a method of the generic Map: the compiler then
// inlines the mixer into every instantiation, including those built in a
// package that does not import splitmix.
func hash(k, seed uint64) uint64 { return splitmix.Mix(k ^ seed) }

// find returns the slot holding k (k != 0), or the empty slot that ends
// k's probe run, and whether k is present. The table must not be empty.
func (f *Map[V]) find(k uint64) (int, bool) {
	mask := uint64(len(f.slots) - 1)
	for i := hash(k, f.seed) & mask; ; i = (i + 1) & mask {
		switch f.slots[i].key {
		case k:
			return int(i), true
		case 0:
			return int(i), false
		}
	}
}

// Get returns the value stored under k and whether k is present.
func (f *Map[V]) Get(k uint64) (V, bool) {
	if k == 0 {
		return f.zero, f.hasZero
	}
	if f.n == 0 {
		var v V
		return v, false
	}
	i, ok := f.find(k)
	return f.slots[i].val, ok
}

// Put stores v under k. A present key is overwritten in place and keeps its
// age; a new key evicts the oldest insertion when the map is full.
func (f *Map[V]) Put(k uint64, v V) {
	p, _ := f.slotFor(k)
	*p = v
}

// Add inserts k with the zero value if it is absent, evicting like Put, and
// reports whether it was present; a present key keeps its value and age.
func (f *Map[V]) Add(k uint64) (present bool) {
	_, present = f.slotFor(k)
	return present
}

// slotFor returns where k's value is stored, inserting k with the zero
// value first if it is absent. A present key costs one probe.
func (f *Map[V]) slotFor(k uint64) (v *V, present bool) {
	if k == 0 {
		if present = f.hasZero; !present {
			f.push(0)
			f.hasZero = true
		}
		return &f.zero, present
	}
	if f.n > 0 {
		if i, ok := f.find(k); ok {
			return &f.slots[i].val, true
		}
	}
	f.push(k)
	if 2*(f.n+1) > len(f.slots) {
		f.grow()
	}
	i, _ := f.find(k)
	f.slots[i].key = k
	f.n++
	return &f.slots[i].val, false
}

// push records k as the newest insertion, evicting the oldest when full.
func (f *Map[V]) push(k uint64) {
	if len(f.ring) < f.cap {
		if len(f.ring) == cap(f.ring) {
			f.ring = append(make([]uint64, 0, min(max(2*cap(f.ring), minSlots), f.cap)), f.ring...)
		}
		f.ring = append(f.ring, k)
		return
	}
	f.remove(f.ring[f.next])
	f.ring[f.next] = k
	f.next = (f.next + 1) % f.cap
}

// remove deletes the present key k. It shifts the rest of k's probe run
// back over the hole, so every key stays reachable from its home slot
// without a tombstone.
func (f *Map[V]) remove(k uint64) {
	if k == 0 {
		var zero V
		f.hasZero, f.zero = false, zero
		return
	}
	hole, _ := f.find(k)
	mask := len(f.slots) - 1
	for j := (hole + 1) & mask; f.slots[j].key != 0; j = (j + 1) & mask {
		// The key at j may fill the hole if its home slot is not after the
		// hole on the cyclic walk to j.
		home := int(hash(f.slots[j].key, f.seed)) & mask
		if (j-home)&mask >= (j-hole)&mask {
			f.slots[hole] = f.slots[j]
			hole = j
		}
	}
	f.slots[hole] = slot[V]{}
	f.n--
}

// grow doubles the table, starting from minSlots, and reinserts every key.
func (f *Map[V]) grow() {
	old := f.slots
	f.slots = make([]slot[V], max(2*len(old), minSlots))
	for _, s := range old {
		if s.key != 0 {
			i, _ := f.find(s.key)
			f.slots[i] = s
		}
	}
}

// Len returns the number of keys held, never more than the capacity.
func (f *Map[V]) Len() int {
	if f.hasZero {
		return f.n + 1
	}
	return f.n
}
