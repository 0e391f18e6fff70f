package agent

import (
	"testing"

	"citymesh/internal/fifo"
)

func TestDedupSetDetectsDuplicates(t *testing.T) {
	d := fifo.New[struct{}](8)
	if d.Add(42) {
		t.Error("first insert must not be a duplicate")
	}
	if !d.Add(42) {
		t.Error("second insert must be a duplicate")
	}
	if d.Len() != 1 {
		t.Errorf("len = %d, want 1", d.Len())
	}
}

func TestDedupSetEvictsOldestFirst(t *testing.T) {
	d := fifo.New[struct{}](4)
	for id := uint64(0); id < 4; id++ {
		d.Add(id)
	}
	// Inserting a 5th evicts id 0 (FIFO), nothing else.
	d.Add(100)
	if d.Len() != 4 {
		t.Fatalf("len = %d, want capacity 4", d.Len())
	}
	if !d.Add(1) || !d.Add(2) || !d.Add(3) {
		t.Error("recent ids must survive the eviction")
	}
	if d.Add(0) {
		t.Error("id 0 should have been evicted, but was still seen")
	}
}

func TestDedupSetStaysBounded(t *testing.T) {
	const capacity = 64
	d := fifo.New[struct{}](capacity)
	for id := uint64(0); id < 10*capacity; id++ {
		d.Add(id)
		if d.Len() > capacity {
			t.Fatalf("cache grew to %d past capacity %d", d.Len(), capacity)
		}
	}
	if d.Len() != capacity {
		t.Errorf("steady-state len = %d, want %d", d.Len(), capacity)
	}
	// The newest window is exactly what survives.
	for id := uint64(10*capacity - capacity); id < 10*capacity; id++ {
		if !d.Add(id) {
			t.Fatalf("id %d from the newest window was evicted", id)
		}
	}
}

func TestDedupSetZeroCapUsesDefault(t *testing.T) {
	d := New(Config{ID: 1, Building: -1}, nil).seen
	for id := uint64(0); id <= DefaultDedupCap; id++ {
		d.Add(id)
	}
	if d.Len() != DefaultDedupCap {
		t.Errorf("holds %d after %d inserts, want the default cap %d", d.Len(), DefaultDedupCap+1, DefaultDedupCap)
	}
}

func TestAgentDedupConfigurable(t *testing.T) {
	// A tiny cache: after capacity distinct messages, the first message is
	// forgotten and counted as fresh again.
	a := New(Config{ID: 1, Building: -1, DedupCap: 2}, nil)
	a.seen.Add(1)
	a.seen.Add(2)
	a.seen.Add(3) // evicts 1
	if a.seen.Len() != 2 {
		t.Fatalf("agent cache holds %d, want cap 2", a.seen.Len())
	}
	if a.seen.Add(1) {
		t.Error("evicted message should be treated as fresh")
	}
}
