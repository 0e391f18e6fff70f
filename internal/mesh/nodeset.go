package mesh

import "math/bits"

// NodeSet is a dense bitset over AP indices: the one type for a set of
// APs, such as the failed and blackholed sets the simulator, the fault
// injectors and the in-process hub consult. A nil NodeSet is a valid empty
// set; Contains on any index (including negative or out-of-range ones) is
// safe and returns false. Add grows the set as needed, so callers never
// size it by hand.
//
// At metro scale (10^5 APs) a NodeSet is ~12 KB against the megabytes a
// populated map would cost, and membership is one shift and mask instead
// of a hash probe, which is what the engine's per-event down() check needs.
type NodeSet []uint64

// NewNodeSet returns an empty set with capacity for indices [0, n).
func NewNodeSet(n int) NodeSet {
	if n <= 0 {
		return nil
	}
	return make(NodeSet, (n+63)/64)
}

// Add sets bit i and returns the (possibly grown) set; negative indices
// are ignored. Use it like append: s = s.Add(i).
func (s NodeSet) Add(i int) NodeSet {
	if i < 0 {
		return s
	}
	w := i >> 6
	for w >= len(s) {
		s = append(s, 0)
	}
	s[w] |= 1 << (uint(i) & 63)
	return s
}

// Contains reports membership; false for any index outside the set's
// capacity (and for any index on a nil set).
func (s NodeSet) Contains(i int) bool {
	if i < 0 {
		return false
	}
	w := i >> 6
	return w < len(s) && s[w]&(1<<(uint(i)&63)) != 0
}

// Len counts members.
func (s NodeSet) Len() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Union returns a new set holding every member of s and other; neither
// input is modified.
func (s NodeSet) Union(other NodeSet) NodeSet {
	if len(other) > len(s) {
		s, other = other, s
	}
	out := s.Clone()
	for i, w := range other {
		out[i] |= w
	}
	return out
}

// Clone returns an independent copy.
func (s NodeSet) Clone() NodeSet {
	if s == nil {
		return nil
	}
	out := make(NodeSet, len(s))
	copy(out, s)
	return out
}
