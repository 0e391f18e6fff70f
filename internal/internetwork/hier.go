package internetwork

import (
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
// real fwd.Decide call on the level-1 kernel of the internetwork's
// fwd.LevelKernel.

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

// l1Allowed classifies every region through the level-1 kernel against a
// conduit-of-conduits header from region src to region dst, returning the
// set a constrained reroute may traverse. A nil return means "no
// constraint": the federation's geometry is degenerate (anchors were never
// set, or src and dst coincide) or the conduit recruits nothing beyond the
// endpoints.
func (in *Internetwork) l1Allowed(src, dst int, widthKm float64, seed int64, attempt int) map[int]bool {
	view := regionView{in}
	if view.Centroid(src) == view.Centroid(dst) {
		return nil
	}
	w := widthKm
	if w <= 0 {
		w = DefaultL1WidthKm
	}
	if w > packet.MaxWidthMeters {
		w = packet.MaxWidthMeters
	}
	hdr := &packet.Header{
		TTL: 16,
		// The MsgID keys the kernel's conduit cache, so it must be unique
		// per (topology, endpoints, width step, seed) — topology folds in
		// via the region and link counts so a federation grown after a
		// send never hits a stale cached region.
		MsgID:     l1MsgID(seed, src, dst, attempt, len(in.order), len(in.links)),
		Width:     uint8(w),
		Waypoints: []uint32{uint32(src), uint32(dst)},
	}
	k := in.lk.Level(fwd.Level1Region)
	allowed := make(map[int]bool, len(in.order))
	for r := range in.order {
		self := fwd.Self{Pos: view.Centroid(r), Building: r}
		v := k.Decide(view, hdr, self, false)
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
func (in *Internetwork) l1Path(from, to int, seed int64, attempt int, widthKm float64, payloadBytes int, banned map[int]bool) (regions, links []int, ok bool) {
	if widthKm <= 0 {
		widthKm = DefaultL1WidthKm
	}
	if attempt <= 1 {
		w := widthKm * float64(attempt+1)
		if allowed := in.l1Allowed(from, to, w, seed, attempt); allowed != nil {
			if r, l, _, ok := in.pathFrom(from, to, seed, payloadBytes, banned, allowed); ok {
				return r, l, true
			}
		}
	}
	r, l, _, ok := in.pathFrom(from, to, seed, payloadBytes, banned, nil)
	return r, l, ok
}

// l1MsgID derives the deterministic cache key for one conduit-of-conduits
// header (SplitMix64 finalizer over the packed parameters).
func l1MsgID(seed int64, src, dst, attempt, nRegions, nLinks int) uint64 {
	x := uint64(seed)
	for _, v := range [...]int{src, dst, attempt, nRegions, nLinks} {
		x += (uint64(v) + 1) * 0x9e3779b97f4a7c15
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
	}
	return x
}
