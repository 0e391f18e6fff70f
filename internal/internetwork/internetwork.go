// Package internetwork composes city-scale DFNs into a wider fallback
// network — §1's question "how do we form an inter-network of DFNs across
// regions?" and "what role ... should technologies such as satellite
// networks serve ... to connect between population centers".
//
// The package is a real two-level hierarchy:
//
//   - Level 0 is routing inside a region: ordinary CityMesh conduits over
//     the building map, delivered by each member Network's escalation
//     ladder (core.SendReliable over the shared, cached Network.Engine()).
//   - Level 1 is the region-summary graph: each region collapses to one
//     coarse node (its anchor position, in kilometers), inter-region links
//     carry latency, bandwidth and Down state, and region-level paths are
//     a seeded Dijkstra over that summary — optionally constrained by a
//     "conduit-of-conduits" computed by the *same* fwd.Decide kernel that
//     makes level-0 forwarding decisions, one hierarchy level up (see
//     hier.go).
//
// The hierarchy is what keeps state and headers flat as the federation
// grows: an ordinary AP stores only its region index and its region's
// gateway list (constant bytes), only gateway buildings hold the
// O(regions+links) summary, and an inter-region frame carries a
// constant-size packet.RegionPrefix on the long-haul links instead of a
// region source route. The `federation` experiment measures both claims.
//
// Regions peer through gateways: designated buildings hosting long-haul
// equipment (satellite terminals, surviving point-to-point fiber, HF
// radio). A region may have several; delivery fails over across them (see
// send.go's escalation order).
package internetwork

import (
	"fmt"

	"citymesh/internal/core"
	"citymesh/internal/fwd"
	"citymesh/internal/geo"
)

// RegionID names a region.
type RegionID string

// Region is one city-scale DFN plus its long-haul attachment points.
type Region struct {
	ID RegionID
	// Net is the region's CityMesh deployment.
	Net *core.Network
	// Gateway is the primary gateway building (kept for compatibility —
	// the flat predecessor of this package had exactly one). When Gateways
	// is set it takes precedence and Gateway is rewritten to Gateways[0]
	// at registration; when only Gateway is set, Gateways becomes
	// [Gateway].
	Gateway int
	// Gateways lists every gateway building in failover priority order.
	// All of a region's gateways share the region's long-haul links — a
	// leg may exit through any live one.
	Gateways []int
	// Pos is the region's anchor on the federation plane, in kilometers.
	// It feeds the level-1 conduit geometry (hier.go); regions that never
	// set it (all anchors coincident) simply get unconstrained level-1
	// rerouting.
	Pos geo.Point
}

// LinkKind classifies an inter-region link.
type LinkKind int

const (
	// LinkSatellite is a satellite bounce: high latency, works anywhere.
	LinkSatellite LinkKind = iota
	// LinkFiber is surviving long-haul fiber: low latency.
	LinkFiber
	// LinkHFRadio is long-range terrestrial radio: moderate latency, low
	// bandwidth.
	LinkHFRadio
)

// String implements fmt.Stringer.
func (k LinkKind) String() string {
	switch k {
	case LinkSatellite:
		return "satellite"
	case LinkFiber:
		return "fiber"
	case LinkHFRadio:
		return "hf-radio"
	default:
		return "unknown"
	}
}

// Link is a bidirectional region-to-region connection.
type Link struct {
	A, B RegionID
	Kind LinkKind
	// LatencySeconds is the one-way link latency.
	LatencySeconds float64
	// BandwidthMbps is the usable link rate; it adds payload transfer time
	// to the link cost. Zero selects a per-kind default.
	BandwidthMbps float64
	// Down marks a failed link (failure injection).
	Down bool
}

// Address identifies an endpoint across the inter-network: the
// hierarchical Region/Building pair that packet.RegionPrefix carries on
// the long-haul links.
type Address struct {
	Region   RegionID
	Building int
}

// Internetwork is the composed fallback network.
type Internetwork struct {
	regions map[RegionID]*Region
	// order assigns each region its dense level-1 index (registration
	// order) — the index space of the summary graph, the level-1 MapView
	// and packet.RegionPrefix.
	order []RegionID
	index map[RegionID]int
	links []Link
	// deadGW holds explicitly failed gateways (FailGateway).
	deadGW map[RegionID]map[int]bool
	// lk stacks the per-level fwd kernels: level 1 makes the
	// conduit-of-conduits decisions and tallies level-aware counters.
	lk *fwd.LevelKernel
	// adj is the lazily built summary adjacency (summary.go); dirty marks
	// it stale after AddRegion/AddLink. Link Down state is read through at
	// search time, so FailLink needs no invalidation.
	adj      [][]halfLink
	adjDirty bool
}

// New returns an empty inter-network.
func New() *Internetwork {
	return &Internetwork{
		regions: make(map[RegionID]*Region),
		index:   make(map[RegionID]int),
		deadGW:  make(map[RegionID]map[int]bool),
		lk:      fwd.NewLevelKernel(),
	}
}

// AddRegion registers a region. Every gateway building must exist in the
// region's city.
func (in *Internetwork) AddRegion(r *Region) error {
	if r == nil || r.Net == nil {
		return fmt.Errorf("internetwork: nil region")
	}
	if _, dup := in.regions[r.ID]; dup {
		return fmt.Errorf("internetwork: duplicate region %q", r.ID)
	}
	if len(r.Gateways) == 0 {
		r.Gateways = []int{r.Gateway}
	} else {
		r.Gateway = r.Gateways[0]
	}
	seen := make(map[int]bool, len(r.Gateways))
	for _, g := range r.Gateways {
		if g < 0 || g >= r.Net.City.NumBuildings() {
			return fmt.Errorf("internetwork: region %q gateway building %d out of range", r.ID, g)
		}
		if seen[g] {
			return fmt.Errorf("internetwork: region %q duplicate gateway %d", r.ID, g)
		}
		seen[g] = true
	}
	in.regions[r.ID] = r
	in.index[r.ID] = len(in.order)
	in.order = append(in.order, r.ID)
	in.adjDirty = true
	return nil
}

// AddLink connects two registered regions.
func (in *Internetwork) AddLink(l Link) error {
	if _, ok := in.regions[l.A]; !ok {
		return fmt.Errorf("internetwork: unknown region %q", l.A)
	}
	if _, ok := in.regions[l.B]; !ok {
		return fmt.Errorf("internetwork: unknown region %q", l.B)
	}
	if l.A == l.B {
		return fmt.Errorf("internetwork: self link %q", l.A)
	}
	if l.LatencySeconds <= 0 {
		l.LatencySeconds = defaultLatency(l.Kind)
	}
	if l.BandwidthMbps <= 0 {
		l.BandwidthMbps = defaultBandwidth(l.Kind)
	}
	in.links = append(in.links, l)
	in.adjDirty = true
	return nil
}

func defaultLatency(k LinkKind) float64 {
	switch k {
	case LinkFiber:
		return 0.01
	case LinkHFRadio:
		return 0.1
	default:
		return 0.6 // GEO satellite bounce
	}
}

func defaultBandwidth(k LinkKind) float64 {
	switch k {
	case LinkFiber:
		return 1000
	case LinkHFRadio:
		return 0.1
	default:
		return 20
	}
}

// Region returns a registered region.
func (in *Internetwork) Region(id RegionID) (*Region, bool) {
	r, ok := in.regions[id]
	return r, ok
}

// Index returns a region's dense level-1 index (its node id in the
// summary graph and in packet.RegionPrefix).
func (in *Internetwork) Index(id RegionID) (int, bool) {
	i, ok := in.index[id]
	return i, ok
}

// RegionIDs lists the registered regions in dense-index order.
func (in *Internetwork) RegionIDs() []RegionID {
	return append([]RegionID(nil), in.order...)
}

// FailLink marks links between two regions as down (failure injection) and
// returns how many links changed state. Flapping a link down→up→down is
// fully supported: path computation reads Down at search time.
func (in *Internetwork) FailLink(a, b RegionID, down bool) int {
	n := 0
	for i := range in.links {
		l := &in.links[i]
		if (l.A == a && l.B == b) || (l.A == b && l.B == a) {
			if l.Down != down {
				l.Down = down
				n++
			}
		}
	}
	return n
}

// FailGateway marks one of a region's gateway buildings as failed (or
// restores it) and returns how many gateways changed state (0 or 1).
// Failed gateways are skipped by gateway selection; a region whose every
// gateway is down becomes untraversable and Send reroutes around it.
func (in *Internetwork) FailGateway(id RegionID, building int, down bool) int {
	r, ok := in.regions[id]
	if !ok {
		return 0
	}
	isGW := false
	for _, g := range r.Gateways {
		if g == building {
			isGW = true
			break
		}
	}
	if !isGW {
		return 0
	}
	dead := in.deadGW[id]
	if dead == nil {
		dead = make(map[int]bool)
		in.deadGW[id] = dead
	}
	if dead[building] == down {
		return 0
	}
	if down {
		dead[building] = true
	} else {
		delete(dead, building)
	}
	return 1
}

// liveGateways returns the region's usable gateways in failover priority
// order, skipping those failed via FailGateway.
func (in *Internetwork) liveGateways(idx int) []int {
	r := in.regions[in.order[idx]]
	dead := in.deadGW[r.ID]
	out := make([]int, 0, len(r.Gateways))
	for _, g := range r.Gateways {
		if !dead[g] {
			out = append(out, g)
		}
	}
	return out
}

// Regions returns the registered region count.
func (in *Internetwork) Regions() int { return len(in.regions) }

// Links returns a copy of the link table.
func (in *Internetwork) Links() []Link { return append([]Link(nil), in.links...) }
