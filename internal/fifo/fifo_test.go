package fifo

import "testing"

func TestEvictsInInsertionOrderAtCap(t *testing.T) {
	m := New[int](3)
	for k := uint64(1); k <= 3; k++ {
		m.Put(k, int(k))
	}
	m.Put(4, 4) // evicts 1
	m.Put(5, 5) // evicts 2
	for k := uint64(1); k <= 5; k++ {
		v, ok := m.Get(k)
		if want := k >= 3; ok != want {
			t.Errorf("key %d present = %v, want %v", k, ok, want)
		} else if ok && v != int(k) {
			t.Errorf("key %d = %d, want %d", k, v, k)
		}
	}
}

func TestPutOnPresentKeyKeepsItsSlot(t *testing.T) {
	m := New[string](3)
	m.Put(1, "a")
	m.Put(2, "b")
	m.Put(3, "c")
	m.Put(1, "A") // overwrite: 1 is still the oldest insertion
	if v, _ := m.Get(1); v != "A" {
		t.Fatalf("Get(1) = %q, want the overwritten value", v)
	}
	if m.Len() != 3 {
		t.Fatalf("Len = %d after an overwrite, want 3", m.Len())
	}
	m.Put(4, "d") // evicts 1, not 2
	if _, ok := m.Get(1); ok {
		t.Error("an overwritten key moved to the back of the queue")
	}
	for _, k := range []uint64{2, 3, 4} {
		if _, ok := m.Get(k); !ok {
			t.Errorf("key %d evicted out of order", k)
		}
	}
}

func TestCapOne(t *testing.T) {
	m := New[struct{}](1)
	for k := uint64(0); k < 5; k++ {
		m.Put(k, struct{}{})
		if _, ok := m.Get(k); !ok || m.Len() != 1 {
			t.Fatalf("after Put(%d): present %v, Len %d; want the one newest key", k, ok, m.Len())
		}
		if k > 0 {
			if _, ok := m.Get(k - 1); ok {
				t.Fatalf("key %d survived at cap 1", k-1)
			}
		}
	}
}

func TestLenNeverExceedsCap(t *testing.T) {
	const capacity = 16
	m := New[uint64](capacity)
	for k := uint64(0); k < 10*capacity; k++ {
		m.Put(k%(3*capacity), k) // a mix of new and present keys
		if m.Len() > capacity || len(m.ring) > capacity {
			t.Fatalf("Len = %d, ring %d: past cap %d", m.Len(), len(m.ring), capacity)
		}
	}
	if m.Len() != capacity {
		t.Errorf("steady-state Len = %d, want %d", m.Len(), capacity)
	}
}

// TestAddIsInsertIfAbsent pins Add: absent keys go in with the zero value and
// evict like Put; present keys keep their value and their age.
func TestAddIsInsertIfAbsent(t *testing.T) {
	m := New[int](2)
	if m.Add(7) {
		t.Fatal("Add of an absent key reported it present")
	}
	m.Put(7, 70)
	if !m.Add(7) {
		t.Fatal("Add of a present key reported it absent")
	}
	if v, _ := m.Get(7); v != 70 {
		t.Fatalf("Add overwrote a present value: Get(7) = %d", v)
	}
	m.Add(0)
	m.Add(8) // evicts 7, the oldest
	if _, ok := m.Get(7); ok {
		t.Error("Add did not evict the oldest key at cap")
	}
	if v, ok := m.Get(0); !ok || v != 0 {
		t.Errorf("Get(0) = %d, %v after Add(0)", v, ok)
	}
}

// maxProbes is the most slots a lookup of a present key walks.
func maxProbes(m *Map[struct{}]) int {
	mask := len(m.slots) - 1
	longest := 0
	for i, s := range m.slots {
		if s.key != 0 {
			longest = max(longest, (i-int(hash(s.key, m.seed))&mask)&mask+1)
		}
	}
	return longest
}

// TestProbeRunsStayShort fills a Map to its cap, and past it, with key sets
// an unseeded or unmixed hash would pile into one run: sequential IDs,
// multiples of the table size and keys that differ only in high bits. The
// seeded mixer must keep every lookup short. Fixed seeds keep the test
// deterministic; a fresh Map draws its own.
func TestProbeRunsStayShort(t *testing.T) {
	const capacity = 4096
	const bound = 48 // the longest seen over these seeds and key sets is 28
	keySets := map[string]func(i uint64) uint64{
		"sequential":          func(i uint64) uint64 { return i },
		"table-size multiple": func(i uint64) uint64 { return i * 2 * capacity },
		"high bits":           func(i uint64) uint64 { return i << 40 },
	}
	for name, key := range keySets {
		for s := uint64(0); s < 8; s++ {
			m := New[struct{}](capacity)
			m.seed = s * 0x9E3779B97F4A7C15
			for i := uint64(1); i <= 3*capacity; i++ {
				m.Add(key(i))
				if i == capacity || i == 3*capacity {
					if p := maxProbes(m); p > bound {
						t.Errorf("%s keys, seed %d, %d inserted: a lookup walks %d slots, want <= %d", name, s, i, p, bound)
					}
				}
			}
			if len(m.slots) != 2*capacity {
				t.Errorf("%s keys: table of %d slots at cap %d, want %d", name, len(m.slots), capacity, 2*capacity)
			}
		}
	}
}
