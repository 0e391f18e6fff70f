// Package conduit implements CityMesh's route-compression algorithm (§3,
// Figure 4 of the paper).
//
// A building route — the sequence of buildings a Dijkstra run over the
// building graph produces — would be too large to carry in a packet header.
// Instead, the route is compressed into a sequence of *waypoint buildings*.
// Between each pair of consecutive waypoints lies a conduit: a rectangle
// superimposed over the route. The paper's width parameter W ("comparable
// to the Wi-Fi transmission range, 50 m in our implementation") is treated
// as the lateral tolerance on each side of the waypoint-to-waypoint axis:
// an AP up to W meters off-axis is inside the conduit. This reading — one
// transmission range of slack either side — is what reproduces the paper's
// high deliverability; interpreting W as the total band width (W/2 each
// side) leaves too few APs in the band to relay through mispredicted
// building-graph hops. The compression both shrinks the
// header and *widens* the described region, which improves tolerance to
// mispredicted AP connectivity: any AP inside a conduit rebroadcasts, not
// just APs in the exact listed buildings.
//
// The waypoint-selection algorithm is the paper's greedy covering: place
// the start of the first conduit at the first building's centroid, then
// find the latest building in the route such that the conduit ending there
// covers every preceding route building; that building is the next
// waypoint. Repeat from there until the destination is reached.
package conduit

import (
	"fmt"

	"citymesh/internal/geo"
	"citymesh/internal/osm"
)

// DefaultWidth is the paper's conduit width parameter W: comparable to the
// Wi-Fi transmission range, 50 m in their implementation.
const DefaultWidth = 50.0

// Route is a compressed building route: an ordered list of waypoint
// building indices (dense city building IDs), including the source building
// first and the destination building last.
type Route struct {
	Waypoints []int
	Width     float64
}

// Compress reduces the building route (a sequence of dense building
// indices) to waypoints such that every building on the route lies within a
// conduit of the given width. It returns an error for empty routes or
// out-of-range indices.
func Compress(city *osm.City, route []int, width float64) (Route, error) {
	if len(route) == 0 {
		return Route{}, fmt.Errorf("conduit: empty route")
	}
	if width <= 0 {
		width = DefaultWidth
	}
	for _, b := range route {
		if b < 0 || b >= len(city.Buildings) {
			return Route{}, fmt.Errorf("conduit: building index %d out of range [0,%d)", b, len(city.Buildings))
		}
	}
	if len(route) == 1 {
		return Route{Waypoints: []int{route[0]}, Width: width}, nil
	}

	waypoints := []int{route[0]}
	start := 0 // index into route of the current conduit's starting waypoint
	for start < len(route)-1 {
		// Find the latest end index such that the conduit from start to end
		// covers all intermediate route buildings.
		end := start + 1 // a single hop is always coverable
		for cand := len(route) - 1; cand > start+1; cand-- {
			if coversIntermediate(city, route, start, cand, width) {
				end = cand
				break
			}
		}
		waypoints = append(waypoints, route[end])
		start = end
	}
	return Route{Waypoints: waypoints, Width: width}, nil
}

// coversIntermediate reports whether the conduit from route[start] to
// route[end] contains the centroids of all route buildings strictly between
// them.
func coversIntermediate(city *osm.City, route []int, start, end int, width float64) bool {
	o := geo.OrientedRect{
		A:         city.Buildings[route[start]].Centroid,
		B:         city.Buildings[route[end]].Centroid,
		HalfWidth: width,
		EndCap:    width,
	}
	for i := start + 1; i < end; i++ {
		if !o.Contains(city.Buildings[route[i]].Centroid) {
			return false
		}
	}
	return true
}

// Map is the minimal building-map view conduit reconstruction consumes: a
// dense building count and per-building centroids. *osm.City satisfies it
// directly; the forwarding kernel's MapView (internal/fwd) is the same
// contract, so sim APs and live agents reconstruct conduits from exactly
// the same inputs.
type Map interface {
	NumBuildings() int
	Centroid(b int) geo.Point
}

// Conduits reconstructs the conduit rectangles for the route using the
// building map, exactly as each AP does on packet reception (§3 step 3).
func (r Route) Conduits(city *osm.City) ([]geo.OrientedRect, error) {
	return r.ConduitsOn(city)
}

// ConduitsOn is Conduits over the abstract map view, so callers that hold
// only the kernel's MapView contract (not a concrete *osm.City) can
// reconstruct the same rectangles.
func (r Route) ConduitsOn(m Map) ([]geo.OrientedRect, error) {
	if len(r.Waypoints) == 0 {
		return nil, fmt.Errorf("conduit: route has no waypoints")
	}
	w := r.Width
	if w <= 0 {
		w = DefaultWidth
	}
	nb := m.NumBuildings()
	for _, b := range r.Waypoints {
		if b < 0 || b >= nb {
			return nil, fmt.Errorf("conduit: waypoint building %d unknown", b)
		}
	}
	if len(r.Waypoints) == 1 {
		c := m.Centroid(r.Waypoints[0])
		return []geo.OrientedRect{{A: c, B: c, HalfWidth: w, EndCap: w}}, nil
	}
	out := make([]geo.OrientedRect, 0, len(r.Waypoints)-1)
	for i := 0; i+1 < len(r.Waypoints); i++ {
		out = append(out, geo.OrientedRect{
			A:         m.Centroid(r.Waypoints[i]),
			B:         m.Centroid(r.Waypoints[i+1]),
			HalfWidth: w,
			EndCap:    w,
		})
	}
	return out, nil
}

// Contains reports whether point p falls inside any of the route's
// conduits. This is the rebroadcast predicate an AP evaluates. The conduits
// slice should come from Conduits; splitting the calls lets an AP
// reconstruct once per packet and test cheaply. Each rectangle is guarded
// by a bounding-box prefilter (MayContain) so far-away points are rejected
// without the oriented-rect projection math.
func Contains(conduits []geo.OrientedRect, p geo.Point) bool {
	for _, o := range conduits {
		if o.MayContain(p) && o.Contains(p) {
			return true
		}
	}
	return false
}

// Region is a conduit set prepared for repeated containment tests — the
// form a message's conduits take once per simulator run, or once per
// message at a live AP. Each oriented rectangle
// is paired with its precomputed axis-aligned bounding box, and the union
// box rejects far-away points with four comparisons before any per-rect
// work. A Region is immutable after construction and safe for concurrent
// Contains calls.
type Region struct {
	rects  []geo.OrientedRect
	bounds []geo.Rect
	outer  geo.Rect
}

// NewRegion precomputes the prefilter geometry for a conduit set. The
// rects slice is retained; callers must not mutate it afterwards.
func NewRegion(rects []geo.OrientedRect) *Region {
	r := &Region{rects: rects, bounds: make([]geo.Rect, len(rects))}
	for i, o := range rects {
		r.bounds[i] = o.Bounds()
		if i == 0 {
			r.outer = r.bounds[0]
		} else {
			r.outer = r.outer.Union(r.bounds[i])
		}
	}
	return r
}

// Contains reports whether p falls inside any conduit of the region. A nil
// or empty region contains nothing.
func (r *Region) Contains(p geo.Point) bool {
	if r == nil || len(r.rects) == 0 || !r.outer.Contains(p) {
		return false
	}
	for i := range r.rects {
		if r.bounds[i].Contains(p) && r.rects[i].Contains(p) {
			return true
		}
	}
	return false
}

// Src returns the source building index of the route.
func (r Route) Src() int { return r.Waypoints[0] }

// Dst returns the destination building index of the route.
func (r Route) Dst() int { return r.Waypoints[len(r.Waypoints)-1] }
