package internetwork

import (
	"citymesh/internal/conduit"
	"citymesh/internal/fwd"
	"citymesh/internal/geo"
	"citymesh/internal/packet"
)

// The conduit-of-conduits: fwd.Decide applied one hierarchy level up.
//
// Level 0 already answers "should this building relay toward that
// building?" from nothing but a map view and a two-waypoint header. Level
// 1 asks the structurally identical question — "should this *region* relay
// toward that region?" — so instead of new policy code, the federation
// hands the same kernel a coarser MapView in which regions are the
// "buildings": NumBuildings is the region count and Centroid is each
// region's anchor on the federation plane, in kilometers. Km units matter:
// Header.Width is a uint8 capped at packet.MaxWidthMeters, which reads
// naturally as km at this level, and a 75 km conduit over 50 km city
// spacing recruits the corridor of regions between source and destination
// the way a 75 m conduit recruits buildings along a street.
//
// The allowed set it produces constrains level-1 re-routing after a region
// or link failure: the first reroute searches inside the conduit, the next
// inside a widened conduit (mirroring the RungWiden step of the level-0
// ladder), and further reroutes fall back to the unrestricted summary
// graph (the level-1 analogue of RungFlood). Every classification is a
// real call of the kernel's decision table, fwd.DecideIn.

// DefaultL1WidthKm is the level-1 conduit width: 1.5× the default
// federation city spacing, wide enough to recruit off-corridor neighbor
// regions as reroute candidates.
const DefaultL1WidthKm = 75

// regionView adapts the federation to fwd.MapView with regions as the
// map's "buildings".
type regionView struct{ in *Internetwork }

func (v regionView) NumBuildings() int { return len(v.in.order) }
func (v regionView) Centroid(i int) geo.Point {
	return v.in.regions[v.in.order[i]].Pos
}

// l1Allowed classifies every region through the decision table against a
// conduit-of-conduits header from region src to region dst, returning the
// set a constrained reroute may traverse. The level-1 region is built once
// per call, on the federation as it stands. A nil return means "no
// constraint": the federation's geometry is degenerate (anchors were never
// set, or src and dst coincide) or the conduit recruits nothing beyond the
// endpoints.
func (in *Internetwork) l1Allowed(src, dst int, widthKm float64) map[int]bool {
	view := regionView{in}
	if view.Centroid(src) == view.Centroid(dst) {
		return nil
	}
	if widthKm > packet.MaxWidthMeters {
		widthKm = packet.MaxWidthMeters
	}
	hdr := &packet.Header{
		TTL:       16,
		Width:     uint8(widthKm),
		Waypoints: []uint32{uint32(src), uint32(dst)},
	}
	region := fwd.BuildRegion(view, hdr)
	regionFn := func() *conduit.Region { return region }
	allowed := make(map[int]bool, len(in.order))
	for r := range in.order {
		self := fwd.Self{Pos: view.Centroid(r), Building: r}
		v := fwd.DecideIn(view, hdr, int(hdr.TTL), self, false, regionFn)
		if v.Rebroadcast || v.Deliver {
			allowed[r] = true
		}
	}
	allowed[src], allowed[dst] = true, true
	if len(allowed) <= 2 {
		return nil
	}
	return allowed
}

// l1Path plans a region path with the conduit-of-conduits constraint
// schedule: attempt 0 searches inside the conduit, attempt 1 inside a 2×
// widened conduit, attempts ≥ 2 (and any attempt whose constrained search
// finds nothing) fall back to the unrestricted summary graph.
func (in *Internetwork) l1Path(from, to int, seed int64, attempt int, payloadBytes int, banned map[int]bool) (regions, links []int, ok bool) {
	if attempt <= 1 {
		w := DefaultL1WidthKm * float64(attempt+1)
		if allowed := in.l1Allowed(from, to, w); allowed != nil {
			if r, l, _, ok := in.pathFrom(from, to, seed, payloadBytes, banned, allowed); ok {
				return r, l, true
			}
		}
	}
	r, l, _, ok := in.pathFrom(from, to, seed, payloadBytes, banned, nil)
	return r, l, ok
}
