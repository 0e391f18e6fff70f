package sim

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"citymesh/internal/mesh"
)

// gatePair drives a table gate and the map reference through the same
// resets and charges, failing on the first verdict they disagree on.
type gatePair struct {
	t   *testing.T
	g   rateGate
	ref mapRateGate
	ops int
}

func (p *gatePair) reset(d Defense) {
	p.ops++
	p.g.reset(d)
	p.ref.reset(d)
	if p.g.on != p.ref.on {
		p.t.Fatalf("op %d: reset(%+v) arms %v, reference %v", p.ops, d, p.g.on, p.ref.on)
	}
}

// allow charges a frame on both gates; like the engine, only an armed gate
// is asked.
func (p *gatePair) allow(to, from int, t float64) {
	p.ops++
	if !p.g.on {
		return
	}
	got, want := p.g.allow(to, from, t), p.ref.allow(to, from, t)
	if got != want {
		p.t.Fatalf("op %d: allow(%d, %d, %v) = %v, reference %v", p.ops, to, from, t, got, want)
	}
	if p.g.n != len(p.ref.buckets) {
		p.t.Fatalf("op %d: %d pairs in the table, reference holds %d", p.ops, p.g.n, len(p.ref.buckets))
	}
	if 2*p.g.n > len(p.g.slots) {
		p.t.Fatalf("op %d: %d pairs in %d slots, more than half full", p.ops, p.g.n, len(p.g.slots))
	}
}

// gateDefense picks a rate-gate setting from two bytes: rate 0 disarms the
// gate, burst 0 derives it from the rate.
func gateDefense(a, b byte) Defense {
	rates := []float64{0, 1, 2.5, 8, 40}
	bursts := []float64{0, 0.5, 1, 3, 16}
	return Defense{NeighborRate: rates[int(a)%len(rates)], NeighborBurst: bursts[int(b)%len(bursts)]}
}

// FuzzRateGateMatchesMap runs the epoch-stamped table gate and the map gate
// it replaced through the same resets and charges and compares every
// verdict. The fuzzer's bytes give short runs over a few nodes (repeated
// pairs, key 0, equal and growing times); the seeded stream then touches
// thousands of pairs, so the table grows across resets.
func FuzzRateGateMatchesMap(f *testing.F) {
	f.Add(uint64(1), uint16(0), []byte{0, 3, 4, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0})
	f.Add(uint64(2), uint16(20000), []byte{0, 1, 0, 2, 5, 6, 3, 6, 5, 0, 0, 0, 4, 5, 6})
	f.Add(uint64(3), uint16(5000), []byte(nil))
	f.Add(uint64(4), uint16(60000), []byte{0, 4, 1, 0, 2, 2})
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, ops []byte) {
		p := &gatePair{t: t}
		now := 0.0
		// step applies one op: a reset, or a charge after a pause of 0, a
		// fraction of a refill, or several refills.
		step := func(op byte, to, from int, a, b byte) {
			switch op % 8 {
			case 0:
				p.reset(gateDefense(a, b))
				now = 0
				return
			case 1, 2, 3:
			case 4, 5:
				now += 0.01
			case 6:
				now += 0.37
			case 7:
				now += 5
			}
			p.allow(to, from, now)
		}
		for i := 0; i+2 < len(ops); i += 3 {
			step(ops[i], int(ops[i+1]%8), int(ops[i+2]%8), ops[i+1], ops[i+2])
		}
		rng := rand.New(rand.NewPCG(seed, uint64(len(ops))))
		nodes := 2 + rng.IntN(3000)
		p.reset(gateDefense(byte(1+rng.IntN(4)), byte(rng.IntN(5)))) // armed
		for i := 0; i < int(n); i++ {
			op := byte(rng.IntN(8))
			if op == 0 && rng.IntN(256) != 0 {
				op = 1 // resets are rare, so runs get long enough to grow the table
			}
			step(op, rng.IntN(nodes), rng.IntN(nodes), byte(rng.IntN(256)), byte(rng.IntN(256)))
		}
	})
}

// TestRateGateResetTouchesNothing pins the O(1) arm: after a defended flood
// that charged thousands of pairs, reset leaves the slot table byte for
// byte as it was, yet a pair from the finished run starts again with a full
// burst. A wrapped epoch counter must not bring old slots back.
func TestRateGateResetTouchesNothing(t *testing.T) {
	city, m := gridCity(t)
	eng := NewEngine(m, city, floodAll{})
	cfg := DefaultConfig()
	cfg.FailedSet = mesh.NewNodeSet(m.NumAPs()).Add(3).Add(99)
	cfg.Defense = Defense{NeighborRate: 8, NeighborBurst: 16}
	if _, err := eng.Run(mkPacket(0, city.NumBuildings()-1, 255), cfg); err != nil {
		t.Fatal(err)
	}
	s := eng.free.Get()
	defer eng.free.Put(s)
	g := &s.gate
	if g.n < 1000 {
		t.Fatalf("the flood charged only %d pairs", g.n)
	}
	// The most-charged pair of the finished run.
	old := g.slots[0]
	for _, sl := range g.slots {
		if sl.epoch == g.epoch && (old.epoch != g.epoch || sl.bucket.Tokens < old.bucket.Tokens) {
			old = sl
		}
	}
	if old.bucket.Tokens > g.burst-1 {
		t.Fatalf("no pair of the run spent a token (least %v of %v)", old.bucket.Tokens, g.burst)
	}

	before := slices.Clone(g.slots)
	g.reset(cfg.Defense)
	if !slices.Equal(g.slots, before) {
		t.Fatal("reset wrote to the slot table")
	}
	if g.n != 0 {
		t.Fatalf("reset leaves %d pairs counted", g.n)
	}
	to, from := int(old.key>>32), int(uint32(old.key))
	for i := 0; i < int(g.burst); i++ {
		if !g.allow(to, from, old.bucket.Last) {
			t.Fatalf("pair (%d, %d) refused frame %d of a fresh %v burst", to, from, i+1, g.burst)
		}
	}
	if g.allow(to, from, old.bucket.Last) {
		t.Fatalf("pair (%d, %d) allowed more than its %v burst", to, from, g.burst)
	}

	// Drain 400 pairs at epoch 1, jump the counter to just short of the
	// wrap, and charge the same pairs after it: the map reference sees a
	// fresh run every time, so no drained epoch-1 bucket may come back.
	p := &gatePair{t: t}
	d := Defense{NeighborRate: 2, NeighborBurst: 3}
	charge := func(now float64) {
		for k := 0; k < 1200; k++ {
			p.allow(k%400, k%400/20, now)
		}
	}
	p.reset(d)
	charge(0)
	p.g.epoch = math.MaxUint32 - 1
	p.reset(d) // the last epoch before the wrap, an empty run
	for run := 0; run < 3; run++ {
		p.reset(d)
		charge(0)
		charge(0.2)
	}
	if p.g.epoch != 3 {
		t.Fatalf("epoch %d three runs after the wrap, want 3", p.g.epoch)
	}
}
