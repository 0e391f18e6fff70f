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
