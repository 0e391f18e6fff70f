package mesh

import "testing"

func TestNodeSetBasics(t *testing.T) {
	s := NewNodeSet(130)
	if s.Len() != 0 {
		t.Fatalf("fresh set Len = %d", s.Len())
	}
	for _, i := range []int{0, 63, 64, 129} {
		s = s.Add(i)
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	for _, i := range []int{0, 63, 64, 129} {
		if !s.Contains(i) {
			t.Errorf("Contains(%d) = false", i)
		}
	}
	if s.Contains(1) || s.Contains(128) {
		t.Error("Contains reports unset members")
	}
	// Out-of-range and negative queries are safe, not panics.
	if s.Contains(-1) || s.Contains(1<<20) {
		t.Error("Contains out of range should be false")
	}
	// Add ignores negatives and grows past the initial capacity.
	s = s.Add(-5)
	s = s.Add(300)
	if !s.Contains(300) || s.Len() != 5 {
		t.Errorf("after growth: Contains(300)=%v Len=%d", s.Contains(300), s.Len())
	}
}

func TestNodeSetNilSafe(t *testing.T) {
	var s NodeSet
	if s.Contains(0) || s.Len() != 0 {
		t.Error("nil NodeSet should be empty")
	}
	s = s.Add(7)
	if !s.Contains(7) {
		t.Error("Add on nil NodeSet must allocate")
	}
}

func TestNodeSetUnion(t *testing.T) {
	a := NewNodeSet(10).Add(1).Add(2)
	b := NewNodeSet(100).Add(2).Add(70)
	u := a.Union(b)
	for _, i := range []int{1, 2, 70} {
		if !u.Contains(i) {
			t.Errorf("union missing %d", i)
		}
	}
	if u.Len() != 3 {
		t.Errorf("union Len = %d", u.Len())
	}
	// Union must not mutate its operands.
	if a.Len() != 2 || b.Len() != 2 {
		t.Error("Union mutated an operand")
	}
	if a.Union(nil).Len() != 2 || NodeSet(nil).Union(b).Len() != 2 {
		t.Error("Union with nil should equal the other operand")
	}
}

func TestNodeSetClone(t *testing.T) {
	a := NewNodeSet(10).Add(3)
	c := a.Clone()
	c = c.Add(4)
	if a.Contains(4) {
		t.Error("Clone shares storage with the original")
	}
	if NodeSet(nil).Clone() != nil {
		t.Error("Clone of nil should be nil")
	}
}
