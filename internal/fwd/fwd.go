// Package fwd is the single source of truth for an AP's forwarding
// decision — the paper's §3 step 3, where a node consults nothing but its
// cached building map and the packet header to decide whether to deliver
// and whether to rebroadcast.
//
// Before this package existed the decision was implemented twice: once in
// internal/routing (the simulator's CityMesh policy) and once in
// internal/agent (the live AP runtime), so every experiment result
// silently assumed the two copies agreed. Both are now thin adapters over
// this package's one decision table, and internal/fwd/parity drives
// identical workloads through the simulator and an in-process hub of live
// agents to prove the paths cannot drift.
//
// The decision is pure and stateless given the map view: Decide and
// DecideIn are free functions, and the package keeps no per-message state.
// The reconstructed conduit region belongs to whoever decides on a
// message: a simulator run builds it once for all its APs, a live agent
// once per message it has not seen before. Kernel adds only the live AP's
// sanity rejections and per-reason decision counters.
package fwd

import (
	"sync/atomic"

	"citymesh/internal/conduit"
	"citymesh/internal/geo"
	"citymesh/internal/packet"
)

// MapView is the contract between a deciding AP and its cached copy of the
// building map: a dense building count and per-building centroids, nothing
// else. *osm.City satisfies it directly. Sim APs and live agents hand the
// kernel the same view, which is what makes the simulator's verdicts
// byte-for-byte the deployed ones.
type MapView interface {
	NumBuildings() int
	Centroid(b int) geo.Point
}

// Self describes the deciding AP: its physical position and the dense
// index of the building hosting it (-1 for a relay AP outside any
// building).
type Self struct {
	Pos      geo.Point
	Building int
}

// Reason classifies a forwarding verdict — why the kernel did or did not
// rebroadcast. The values are stable: they are counted into agent.Stats
// and sim.Result.
type Reason uint8

const (
	// ReasonFirstHop is the initial injection (sim's from == -1, the
	// agent's Inject): the AP the sender's device submitted to always
	// transmits (§3 step 3).
	ReasonFirstHop Reason = iota
	// ReasonTTLExpired suppressed the rebroadcast because the received
	// header TTL was ≤ 1; delivery still happens.
	ReasonTTLExpired
	// ReasonGeocast rebroadcast because the packet is a geocast and the
	// AP's position lies inside the target disc.
	ReasonGeocast
	// ReasonInConduit rebroadcast because the AP's test point falls inside
	// a conduit reconstructed from the header — the paper's core rule.
	ReasonInConduit
	// ReasonOutOfConduit suppressed the rebroadcast because the test point
	// lies outside every conduit — the paper's core suppression.
	ReasonOutOfConduit
	// ReasonBadRoute suppressed the rebroadcast because the header's
	// waypoints could not be resolved against the map (unknown building
	// index, empty route, or no map at all).
	ReasonBadRoute
	// ReasonTTLInflated rejected the frame outright: its as-received TTL
	// exceeds the kernel's configured network maximum, the signature of a
	// Byzantine TTL-resetter upstream. Unlike the suppressions above, the
	// frame is not delivered either — its header is evidence of tampering.
	ReasonTTLInflated
	// ReasonBadConduit rejected the frame outright under strict sanity:
	// the header's conduit description is malformed against the local map
	// (waypoint index beyond the building count), which no honest sender
	// can produce — a corruptor's flipped route bytes.
	ReasonBadConduit

	numReasons
)

// String implements fmt.Stringer for diagnostics and experiment tables.
func (r Reason) String() string {
	switch r {
	case ReasonFirstHop:
		return "first-hop"
	case ReasonTTLExpired:
		return "ttl-expired"
	case ReasonGeocast:
		return "geocast"
	case ReasonInConduit:
		return "in-conduit"
	case ReasonOutOfConduit:
		return "out-of-conduit"
	case ReasonBadRoute:
		return "bad-route"
	case ReasonTTLInflated:
		return "ttl-inflated"
	case ReasonBadConduit:
		return "bad-conduit"
	default:
		return "unknown"
	}
}

// Verdict is the kernel's complete answer for one received packet.
// Deliver and Rebroadcast are independent: a destination AP with an
// exhausted TTL delivers without forwarding, and an in-conduit transit AP
// forwards without delivering.
type Verdict struct {
	// Deliver requests local delivery: this AP's building is the route
	// destination, or the packet is a geocast and the AP sits inside the
	// target disc.
	Deliver bool
	// Rebroadcast requests retransmission to every neighbor.
	Rebroadcast bool
	// Reason explains the Rebroadcast bit.
	Reason Reason
}

// Counts is a tally of per-reason decision totals. The zero value is
// empty.
type Counts struct {
	FirstHop     uint64
	TTLExpired   uint64
	Geocast      uint64
	InConduit    uint64
	OutOfConduit uint64
	BadRoute     uint64
	TTLInflated  uint64
	BadConduit   uint64
}

// Total returns the number of decisions counted.
func (c Counts) Total() uint64 {
	return c.FirstHop + c.TTLExpired + c.Geocast + c.InConduit + c.OutOfConduit +
		c.BadRoute + c.TTLInflated + c.BadConduit
}

// Add tallies n decisions for reason r — the one mapping from a Reason to
// its Counts field.
func (c *Counts) Add(r Reason, n uint64) {
	switch r {
	case ReasonFirstHop:
		c.FirstHop += n
	case ReasonTTLExpired:
		c.TTLExpired += n
	case ReasonGeocast:
		c.Geocast += n
	case ReasonInConduit:
		c.InConduit += n
	case ReasonOutOfConduit:
		c.OutOfConduit += n
	case ReasonBadRoute:
		c.BadRoute += n
	case ReasonTTLInflated:
		c.TTLInflated += n
	case ReasonBadConduit:
		c.BadConduit += n
	}
}

// Decide evaluates the paper's stateless forwarding rule: reconstruct the
// conduits from the header against the map view and test this AP. It is a
// pure function of its inputs — the property the parity harness leans on.
// hdr.TTL must be the TTL as received off the wire; callers that track
// remaining TTL out of band, or that already hold the message's region
// (the simulator), use DecideIn.
func Decide(view MapView, hdr *packet.Header, self Self, firstHop bool) Verdict {
	return DecideIn(view, hdr, int(hdr.TTL), self, firstHop, func() *conduit.Region {
		return BuildRegion(view, hdr)
	})
}

// BuildRegion reconstructs the prefiltered conduit region a header
// describes, exactly the computation each AP performs once per new
// message. It returns nil when the route cannot be resolved against the
// view (the ReasonBadRoute case).
func BuildRegion(view MapView, hdr *packet.Header) *conduit.Region {
	if view == nil || len(hdr.Waypoints) == 0 {
		return nil
	}
	wps := make([]int, len(hdr.Waypoints))
	for i, w := range hdr.Waypoints {
		wps[i] = int(w)
	}
	rects, err := conduit.Route{Waypoints: wps, Width: hdr.WidthMeters()}.ConduitsOn(view)
	if err != nil {
		return nil
	}
	return conduit.NewRegion(rects)
}

// TestPoint is the position the conduit-containment test runs against:
// the hosting building's centroid when the AP sits in a known building
// (§4: "currently all the APs within a building rebroadcast", so the
// building is the unit of membership), or the AP's own position for relay
// APs outside any building.
func TestPoint(view MapView, self Self) geo.Point {
	if view != nil && self.Building >= 0 && self.Building < view.NumBuildings() {
		return view.Centroid(self.Building)
	}
	return self.Pos
}

// WouldDeliver reports whether this AP should hand the packet to its
// local delivery path: it hosts the destination building, or the packet
// is a geocast whose target disc covers the AP's position. Delivery never
// depends on the conduit geometry or the TTL.
func WouldDeliver(hdr *packet.Header, self Self) bool {
	if len(hdr.Waypoints) > 0 && self.Building >= 0 && self.Building == hdr.Dst() {
		return true
	}
	return inGeocastArea(hdr, self.Pos)
}

// inGeocastArea reports whether pos lies inside the header's geocast
// target disc. The test runs against the AP's physical position, not its
// building centroid: the geocast contract is "every radio inside the
// area", not "every building".
func inGeocastArea(hdr *packet.Header, pos geo.Point) bool {
	if hdr.Flags&packet.FlagGeocast == 0 {
		return false
	}
	center := geo.Pt(float64(hdr.Target.CenterX), float64(hdr.Target.CenterY))
	return pos.Dist(center) <= float64(hdr.Target.Radius)
}

// DecideIn is the decision table every entry point shares, with the
// as-received TTL and the message's conduit region supplied by the caller:
// region returns what BuildRegion(view, hdr) would, and is consulted
// lazily, so only the conduit branch pays for it. A caller deciding many
// APs on one header builds the region once and hands it to each call.
func DecideIn(view MapView, hdr *packet.Header, ttl int, self Self, firstHop bool, region func() *conduit.Region) Verdict {
	if len(hdr.Waypoints) == 0 {
		return Verdict{Reason: ReasonBadRoute}
	}
	deliver := WouldDeliver(hdr, self)
	if firstHop {
		// Initial injection: the AP the sender's device submitted to
		// always transmits, even at the edge of the first conduit.
		return Verdict{Deliver: deliver, Rebroadcast: true, Reason: ReasonFirstHop}
	}
	if ttl <= 1 {
		return Verdict{Deliver: deliver, Reason: ReasonTTLExpired}
	}
	if inGeocastArea(hdr, self.Pos) {
		return Verdict{Deliver: deliver, Rebroadcast: true, Reason: ReasonGeocast}
	}
	r := region()
	if r == nil {
		return Verdict{Deliver: deliver, Reason: ReasonBadRoute}
	}
	if r.Contains(TestPoint(view, self)) {
		return Verdict{Deliver: deliver, Rebroadcast: true, Reason: ReasonInConduit}
	}
	return Verdict{Deliver: deliver, Reason: ReasonOutOfConduit}
}

// Options parameterizes a Kernel.
type Options struct {
	// MaxTTL, when non-zero, rejects non-first-hop frames whose
	// as-received TTL exceeds it (ReasonTTLInflated). Set it to the
	// deployment's network TTL: no honest frame can arrive above it, so
	// anything that does was rewritten by a Byzantine TTL-resetter.
	MaxTTL uint8
	// StrictSanity enables cheap header-shape rejection: a waypoint index
	// beyond the map view's building count is unmappable by any honest
	// sender and rejects the frame outright (ReasonBadConduit) instead of
	// merely suppressing the rebroadcast as bad-route.
	StrictSanity bool
}

// Kernel is a live AP's forwarding engine: the pure decision table behind
// its sanity rejections, with atomic per-reason counters. It keeps
// no per-message state: an AP's dedup set lets one Decide per message
// through, so the conduit region is built once per message anyway. A
// Kernel is safe for concurrent use.
type Kernel struct {
	counts [numReasons]atomic.Uint64
	maxTTL int
	strict bool
}

// NewKernel returns a kernel with the given options.
func NewKernel(opts Options) *Kernel {
	return &Kernel{maxTTL: int(opts.MaxTTL), strict: opts.StrictSanity}
}

// sanity runs the kernel's cheap adversarial rejections on a received
// header. ok is false on rejection, with the rejecting verdict (neither
// deliver nor rebroadcast). First-hop frames are exempt: the injecting AP
// vouches for its own submission, and the source header legitimately
// carries the full network TTL.
func (k *Kernel) sanity(view MapView, hdr *packet.Header, firstHop bool) (Verdict, bool) {
	if firstHop {
		return Verdict{}, true
	}
	if k.maxTTL > 0 && int(hdr.TTL) > k.maxTTL {
		return Verdict{Reason: ReasonTTLInflated}, false
	}
	if k.strict && view != nil {
		nb := uint32(view.NumBuildings())
		for _, w := range hdr.Waypoints {
			if w >= nb {
				return Verdict{Reason: ReasonBadConduit}, false
			}
		}
	}
	return Verdict{}, true
}

// Sanity is the exported form of the kernel's cheap rejection stack, for
// callers that want to refuse a frame before spending dedup-cache or
// delivery work on it (the live agent runs it pre-dedup so tampered frames
// never claim a dedup slot). A rejection is counted here; callers must not
// follow a failed Sanity with Decide for the same frame, which would
// double-count.
func (k *Kernel) Sanity(view MapView, hdr *packet.Header, firstHop bool) (Verdict, bool) {
	v, ok := k.sanity(view, hdr, firstHop)
	if !ok {
		k.counts[v.Reason].Add(1)
	}
	return v, ok
}

// Decide is the sanity-checked, counted form of the package-level Decide:
// a frame that passes the kernel's rejections gets the same verdict, and
// every decision is tallied into Counts.
func (k *Kernel) Decide(view MapView, hdr *packet.Header, self Self, firstHop bool) Verdict {
	v, ok := k.sanity(view, hdr, firstHop)
	if ok {
		v = Decide(view, hdr, self, firstHop)
	}
	k.counts[v.Reason].Add(1)
	return v
}

// Counts snapshots the per-reason decision totals since the kernel was
// created.
func (k *Kernel) Counts() Counts {
	var c Counts
	for r := range k.counts {
		c.Add(Reason(r), k.counts[r].Load())
	}
	return c
}
