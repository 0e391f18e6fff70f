package apps

import (
	"fmt"

	"citymesh/internal/core"
	"citymesh/internal/geo"
	"citymesh/internal/packet"
	"citymesh/internal/routing"
	"citymesh/internal/sim"
)

// GeocastPolicy extends the conduit policy for area-addressed messages
// (§1's "geospatial messaging"): the packet first rides a conduit toward
// the building nearest the target area's center, then floods within the
// target disc so every AP (and postbox) in the area hears it.
//
// The disc-then-conduit rule itself lives in the shared forwarding kernel
// (internal/fwd), which evaluates the geocast branch for every
// FlagGeocast packet — so this policy is the plain CityMesh adapter under
// a distinct name, kept so transcripts and tables can label geocast runs.
type GeocastPolicy struct{}

// NewGeocastPolicy returns the geocast forwarding policy.
func NewGeocastPolicy() *GeocastPolicy { return &GeocastPolicy{} }

// Name implements sim.Policy.
func (*GeocastPolicy) Name() string { return "geocast" }

// OnReceive implements sim.Policy.
func (*GeocastPolicy) OnReceive(ctx *sim.Context, ap int, pkt *packet.Packet, from int) sim.Decision {
	return routing.CityMesh{}.OnReceive(ctx, ap, pkt, from)
}

// GeocastResult summarizes one geocast.
type GeocastResult struct {
	// Sim is the raw simulation result (Delivered means the anchor
	// building heard it).
	Sim sim.Result
	// APsInArea is the number of APs inside the target disc.
	APsInArea int
	// APsCovered is how many of them received the message.
	APsCovered int
	// Broadcasts is the total transmission count.
	Broadcasts int
}

// Coverage is the fraction of in-area APs reached — the geocast quality
// metric.
func (r GeocastResult) Coverage() float64 {
	if r.APsInArea == 0 {
		return 0
	}
	return float64(r.APsCovered) / float64(r.APsInArea)
}

// Geocast routes payload from the source building to every AP within
// radius meters of center.
func Geocast(n *core.Network, srcBuilding int, center geo.Point, radius float64, payload []byte, simCfg sim.Config) (GeocastResult, error) {
	if radius <= 0 {
		return GeocastResult{}, fmt.Errorf("apps: geocast radius must be positive")
	}
	// Anchor: the building nearest the target center; the conduit carries
	// the message there, the in-area flood spreads it.
	anchor := n.Graph.NearestBuilding(center)
	if anchor < 0 {
		return GeocastResult{}, fmt.Errorf("apps: no buildings in city")
	}
	route, err := n.PlanRoute(srcBuilding, anchor)
	if err != nil {
		return GeocastResult{}, fmt.Errorf("apps: geocast route: %w", err)
	}
	pkt, err := n.NewPacket(route, payload)
	if err != nil {
		return GeocastResult{}, err
	}
	pkt.Header.Flags |= packet.FlagGeocast
	pkt.Header.Target = packet.GeocastArea{
		CenterX: int32(center.X + 0.5),
		CenterY: int32(center.Y + 0.5),
		Radius:  uint32(radius + 0.5),
	}

	if !simCfg.RecordTranscript {
		simCfg.RecordTranscript = true
	}
	res, err := n.Engine().RunPolicy(NewGeocastPolicy(), pkt, simCfg)
	if err != nil {
		return GeocastResult{}, err
	}

	out := GeocastResult{Sim: res, Broadcasts: res.Broadcasts}
	for id, ap := range n.Mesh.APs {
		if ap.Pos.Dist(center) > radius {
			continue
		}
		out.APsInArea++
		if id < len(res.Transcript) && res.Transcript[id].Received {
			out.APsCovered++
		}
	}
	return out, nil
}
