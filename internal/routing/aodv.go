package routing

import (
	"citymesh/internal/packet"
	"citymesh/internal/sim"
)

// AODVCost models the transmission cost of an AODV-style reactive protocol
// (§5): a route request (RREQ) floods the network until the destination is
// reached, a route reply (RREP) unicasts back along the discovered path,
// and the data packet then unicasts along it. The paper's criticism is that
// each route construction "quickly wast[es] the bandwidth which should be
// reserved for data packet transmissions" — this function quantifies it.
type AODVCost struct {
	// Delivered reports whether discovery reached the destination.
	Delivered bool
	// RREQBroadcasts is the flood cost of route discovery.
	RREQBroadcasts int
	// RREPUnicasts is the reply path length.
	RREPUnicasts int
	// DataUnicasts is the data path length.
	DataUnicasts int
}

// Total returns all transmissions charged to delivering one data packet.
func (c AODVCost) Total() int { return c.RREQBroadcasts + c.RREPUnicasts + c.DataUnicasts }

// AODVDiscoverEngine computes the AODV cost model for one src→dst building
// pair by running a flood simulation on eng for the RREQ and a BFS for the
// path. Sweeps share one engine across pairs, so they amortize the per-mesh
// precomputation and reused scratch. The engine's own policy is ignored:
// the RREQ always floods.
func AODVDiscoverEngine(eng *sim.Engine, src, dst int, cfg sim.Config) AODVCost {
	pkt := &packet.Packet{
		Header: packet.Header{
			TTL:       packet.DefaultTTL,
			MsgID:     0xA0D5<<32 | uint64(src)<<16 | uint64(dst),
			Waypoints: []uint32{uint32(src), uint32(dst)},
		},
	}
	res, err := eng.RunPolicy(Flood{}, pkt, cfg)
	if err != nil {
		// An uninjectable pair discovers nothing; the cost model reports an
		// undelivered zero-cost discovery, as the flood sim always did.
		return AODVCost{}
	}
	cost := AODVCost{Delivered: res.Delivered, RREQBroadcasts: res.Broadcasts}
	if !res.Delivered {
		return cost
	}
	hops, err := eng.Mesh().MinTransmissions(src, dst)
	if err != nil {
		// Flood delivered but BFS cannot: impossible by construction, but
		// degrade gracefully.
		return cost
	}
	cost.RREPUnicasts = hops
	cost.DataUnicasts = hops
	return cost
}
