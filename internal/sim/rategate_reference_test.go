package sim

// mapRateGate is the rate gate this package had before the epoch-stamped
// table: a Go map of value buckets, cleared on every reset. It is kept
// verbatim as the reference FuzzRateGateMatchesMap and
// TestRateGateResetTouchesNothing check against.
type mapRateGate struct {
	on          bool
	rate, burst float64
	buckets     map[uint64]pairBucket
}

// pairBucket is one (receiver, sender) token bucket, sim-time based.
type pairBucket struct {
	tokens float64
	last   float64
}

func (g *mapRateGate) reset(d Defense) {
	g.on = d.NeighborRate > 0
	if !g.on {
		return
	}
	g.rate, g.burst = d.NeighborRate, d.NeighborBurst
	if g.burst <= 0 {
		g.burst = 2 * d.NeighborRate
	}
	if g.buckets == nil {
		g.buckets = make(map[uint64]pairBucket)
	}
	clear(g.buckets)
}

func (g *mapRateGate) allow(to, from int, t float64) bool {
	key := pairKey(to, from)
	b, seen := g.buckets[key]
	if !seen {
		b = pairBucket{tokens: g.burst, last: t}
	}
	b.tokens += (t - b.last) * g.rate
	b.last = t
	if b.tokens > g.burst {
		b.tokens = g.burst
	}
	ok := b.tokens >= 1
	if ok {
		b.tokens--
	}
	g.buckets[key] = b
	return ok
}
