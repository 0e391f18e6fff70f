package fifo

import (
	"math/rand/v2"
	"testing"
)

// FuzzMapMatchesReference runs one sequence of Put, Get and Add on the Map
// and on the map-plus-ring reference, and compares every result and Len.
// The fuzzer's bytes drive the first operations; a generator seeded from
// the input continues with enough of them to fill and churn caps up to
// 4096, over a key range small enough that keys repeat and 0 turns up.
func FuzzMapMatchesReference(f *testing.F) {
	f.Add(uint16(0), uint64(1), uint16(100), []byte{0, 0, 1, 0, 2, 0})
	f.Add(uint16(3), uint64(2), uint16(5000), []byte{0, 5, 0, 6, 0, 7, 0, 8, 1, 5})
	f.Add(uint16(4095), uint64(3), uint16(19999), []byte(nil))
	f.Add(uint16(63), uint64(4), uint16(9000), []byte{2, 0, 2, 0, 1, 0})
	f.Fuzz(func(t *testing.T, capacity uint16, seed uint64, n uint16, ops []byte) {
		c := 1 + int(capacity)%4096
		m, ref := New[uint64](c), newRef[uint64](c)
		keys := uint64(2*c + 2)
		step := func(i int, op byte, k uint64) {
			switch op % 3 {
			case 0:
				m.Put(k, uint64(i))
				ref.Put(k, uint64(i))
			case 1:
				v, ok := m.Get(k)
				rv, rok := ref.Get(k)
				if v != rv || ok != rok {
					t.Fatalf("op %d: Get(%d) = %d, %v; reference %d, %v", i, k, v, ok, rv, rok)
				}
			case 2:
				if got, want := m.Add(k), ref.Add(k); got != want {
					t.Fatalf("op %d: Add(%d) = %v; reference %v", i, k, got, want)
				}
			}
			if m.Len() != ref.Len() {
				t.Fatalf("op %d: Len = %d; reference %d", i, m.Len(), ref.Len())
			}
		}
		for i := 0; i+1 < len(ops); i += 2 {
			step(i, ops[i], uint64(ops[i+1])%keys)
		}
		rng := rand.New(rand.NewPCG(seed, uint64(c)))
		for i := 0; i < int(n)%20000; i++ {
			k := rng.Uint64N(keys)
			if rng.IntN(16) == 0 {
				k = rng.Uint64() // a key that never repeats
			}
			step(len(ops)+i, byte(rng.IntN(3)), k)
		}
		for _, k := range ref.ring {
			v, ok := m.Get(k)
			if rv := ref.m[k]; !ok || v != rv {
				t.Fatalf("held key %d: Get = %d, %v; reference %d", k, v, ok, rv)
			}
		}
	})
}
