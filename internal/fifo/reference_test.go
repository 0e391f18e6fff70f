package fifo

// refMap is the map-plus-ring Map this package had before the open-addressed
// table, kept verbatim as the reference FuzzMapMatchesReference checks
// against.
type refMap[V any] struct {
	cap  int
	m    map[uint64]V
	ring []uint64 // keys in insertion order, from slot next
	next int      // ring slot the next insertion overwrites once full
}

func newRef[V any](capacity int) *refMap[V] {
	return &refMap[V]{cap: capacity, m: make(map[uint64]V, capacity)}
}

func (f *refMap[V]) Get(k uint64) (V, bool) {
	v, ok := f.m[k]
	return v, ok
}

func (f *refMap[V]) Put(k uint64, v V) {
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

func (f *refMap[V]) Len() int { return len(f.m) }

// Add is insert-if-absent the way callers wrote it on the old Map: a Get,
// then a Put of the zero value.
func (f *refMap[V]) Add(k uint64) bool {
	if _, ok := f.m[k]; ok {
		return true
	}
	var zero V
	f.Put(k, zero)
	return false
}
