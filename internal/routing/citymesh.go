// Package routing implements the forwarding policies the evaluation runs
// inside the simulator: the CityMesh conduit policy (the paper's
// contribution) and the comparison baselines — blind flooding, gossip
// (probabilistic) flooding, and greedy geographic forwarding — plus an
// AODV-style route-discovery cost model.
package routing

import (
	"math"

	"citymesh/internal/conduit"
	"citymesh/internal/fwd"
	"citymesh/internal/packet"
	"citymesh/internal/sim"
)

// CityMesh is the paper's policy (§3 step 3): an AP rebroadcasts a packet
// if and only if its *building* falls inside one of the conduits
// reconstructed from the waypoint buildings in the packet header ("Only
// APs in buildings that fall within the geographic area of the conduits
// ... rebroadcast"; §4 confirms "currently all the APs within a building
// rebroadcast" when explaining the 13x overhead). Relay APs outside any
// building test their own position instead. The AP consults nothing but
// its copy of the building map and the header — no routing tables, no
// neighbor state.
//
// The decision itself lives in the shared forwarding kernel
// (internal/fwd), the same code path the live AP agent executes; this
// type is a thin sim.Policy adapter and holds no state. The message's
// conduit region and the decision tally belong to the run's sim.Context.
type CityMesh struct{}

// Name implements sim.Policy.
func (CityMesh) Name() string { return "citymesh" }

// OnReceive implements sim.Policy.
func (CityMesh) OnReceive(ctx *sim.Context, ap int, pkt *packet.Packet, from int) sim.Decision {
	ttl := ctx.TTL
	if ttl <= 0 {
		// Direct caller that didn't thread the as-received TTL: trust the
		// header (the engine always sets ctx.TTL).
		ttl = int(pkt.Header.TTL)
	}
	a := ctx.Mesh.APs[ap]
	v := fwd.DecideIn(ctx.City, &pkt.Header, ttl, fwd.Self{Pos: a.Pos, Building: a.Building}, from < 0,
		func() *conduit.Region { return ctx.Region(&pkt.Header) })
	ctx.Decisions.Add(v.Reason, 1)
	return sim.Decision{Rebroadcast: v.Rebroadcast}
}

// Flood is blind flooding: every AP rebroadcasts every new packet until the
// TTL expires. It is the delivery-probability upper bound and the overhead
// worst case.
type Flood struct{}

// Name implements sim.Policy.
func (Flood) Name() string { return "flood" }

// OnReceive implements sim.Policy.
func (Flood) OnReceive(*sim.Context, int, *packet.Packet, int) sim.Decision {
	return sim.Decision{Rebroadcast: true}
}

// Gossip rebroadcasts each new packet independently with probability P — a
// classic broadcast-storm mitigation.
type Gossip struct {
	// P is the rebroadcast probability in (0, 1].
	P float64
}

// Name implements sim.Policy.
func (Gossip) Name() string { return "gossip" }

// OnReceive implements sim.Policy.
func (g Gossip) OnReceive(ctx *sim.Context, ap int, pkt *packet.Packet, from int) sim.Decision {
	if from < 0 {
		// The source always transmits.
		return sim.Decision{Rebroadcast: true}
	}
	return sim.Decision{Rebroadcast: ctx.RNG.Float64() < g.P}
}

// GreedyGeo is greedy geographic forwarding (GPSR's greedy mode): each AP
// unicasts to the neighbor closest to the destination building's centroid.
// When no neighbor is strictly closer (a void), it optionally falls back to
// the least-bad neighbor, relying on the engine's duplicate suppression to
// avoid loops — a simplified stand-in for perimeter routing.
//
// Unlike CityMesh, this baseline assumes each AP knows its neighbors'
// positions (the beacon overhead the paper's §5 criticizes is not charged
// here, making the comparison conservative in the baseline's favor).
type GreedyGeo struct {
	// Fallback enables forwarding to the least-regressing neighbor at a
	// void instead of dropping.
	Fallback bool
}

// Name implements sim.Policy.
func (g GreedyGeo) Name() string {
	if g.Fallback {
		return "greedy+fallback"
	}
	return "greedy"
}

// OnReceive implements sim.Policy.
func (g GreedyGeo) OnReceive(ctx *sim.Context, ap int, pkt *packet.Packet, from int) sim.Decision {
	dstPos := ctx.City.Buildings[ctx.Dst].Centroid
	self := ctx.Mesh.APs[ap].Pos
	selfD := self.Dist(dstPos)

	best, bestD := -1, math.Inf(1)
	second, secondD := -1, math.Inf(1)
	ctx.Mesh.Neighbors(ap, func(n int) {
		if n == from {
			return // never bounce straight back
		}
		d := ctx.Mesh.APs[n].Pos.Dist(dstPos)
		switch {
		case d < bestD:
			second, secondD = best, bestD
			best, bestD = n, d
		case d < secondD:
			second, secondD = n, d
		}
	})
	if best < 0 {
		return sim.Decision{}
	}
	if bestD < selfD {
		return sim.Decision{NextHops: []int32{int32(best)}}
	}
	if g.Fallback {
		// Void: hand to the two least-bad neighbors; duplicate suppression
		// at each AP bounds the wandering. This is a crude stand-in for
		// perimeter routing, enough to show the void-recovery trade-off.
		hops := []int32{int32(best)}
		if second >= 0 {
			hops = append(hops, int32(second))
		}
		return sim.Decision{NextHops: hops}
	}
	return sim.Decision{}
}
