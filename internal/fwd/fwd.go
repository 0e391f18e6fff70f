// Package fwd is the single source of truth for an AP's forwarding
// decision — the paper's §3 step 3, where a node consults nothing but its
// cached building map and the packet header to decide whether to deliver
// and whether to rebroadcast.
//
// Before this package existed the decision was implemented twice: once in
// internal/routing (the simulator's CityMesh policy) and once in
// internal/agent (the live AP runtime), so every experiment result
// silently assumed the two copies agreed. Both are now thin adapters over
// Decide/Kernel here, and internal/fwd/parity drives identical workloads
// through the simulator and an in-process hub of live agents to prove the
// paths cannot drift.
//
// The decision is pure and stateless given the map view: Decide is a free
// function. The only state worth keeping is the reconstructed conduit
// geometry per message — Kernel adds a bounded, concurrency-safe FIFO
// cache of prefiltered conduit regions plus per-reason decision counters.
package fwd

import (
	"sync"
	"sync/atomic"

	"citymesh/internal/conduit"
	"citymesh/internal/fifo"
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

// Counts is a snapshot of per-reason decision totals. The zero value is
// empty; Sub supports windowed readings over a shared kernel.
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

// Rebroadcasts returns the decisions that requested a transmission.
func (c Counts) Rebroadcasts() uint64 { return c.FirstHop + c.Geocast + c.InConduit }

// Rejected returns the sanity rejections: frames the kernel refused to
// process at all (no delivery, no rebroadcast) because the header is
// evidence of tampering.
func (c Counts) Rejected() uint64 { return c.TTLInflated + c.BadConduit }

// Sub returns c - o field-wise (for diffing two snapshots of one kernel).
func (c Counts) Sub(o Counts) Counts {
	return Counts{
		FirstHop:     c.FirstHop - o.FirstHop,
		TTLExpired:   c.TTLExpired - o.TTLExpired,
		Geocast:      c.Geocast - o.Geocast,
		InConduit:    c.InConduit - o.InConduit,
		OutOfConduit: c.OutOfConduit - o.OutOfConduit,
		BadRoute:     c.BadRoute - o.BadRoute,
		TTLInflated:  c.TTLInflated - o.TTLInflated,
		BadConduit:   c.BadConduit - o.BadConduit,
	}
}

// Decide evaluates the paper's stateless forwarding rule with no cache and
// no counters: reconstruct the conduits from the header against the map
// view and test this AP. It is a pure function of its inputs — the
// property the parity harness leans on. hdr.TTL must be the TTL as
// received off the wire; callers that track remaining TTL out of band
// (the simulator) use Kernel.DecideTTL.
func Decide(view MapView, hdr *packet.Header, self Self, firstHop bool) Verdict {
	return verdict(view, hdr, int(hdr.TTL), self, firstHop, func() *conduit.Region {
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

// verdict is the decision table shared by the pure and cached entry
// points. region is consulted lazily: only the conduit branch pays for
// reconstruction.
func verdict(view MapView, hdr *packet.Header, ttl int, self Self, firstHop bool, region func() *conduit.Region) Verdict {
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

// DefaultCacheCap is the default bound on the kernel's per-message conduit
// cache. 1024 messages of a few rectangles each is tens of kilobytes —
// safe for a 32 MB router — while covering far more concurrent flood
// waves than a city sees at once.
const DefaultCacheCap = 1024

// Options parameterizes a Kernel.
type Options struct {
	// CacheCap bounds the conduit-region cache (number of message IDs);
	// 0 means DefaultCacheCap, negative disables caching entirely.
	CacheCap int
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

// Kernel is the shared forwarding engine: the pure decision table plus a
// bounded FIFO cache of reconstructed conduit regions (keyed by message
// ID) and atomic per-reason counters. A Kernel is safe for concurrent use;
// one instance assumes one map view (message IDs are unique across
// traffic, so entries never collide across cities in practice).
type Kernel struct {
	cache  regionCache
	counts [numReasons]atomic.Uint64
	maxTTL int
	strict bool
}

// NewKernel returns a kernel with the given options.
func NewKernel(opts Options) *Kernel {
	k := &Kernel{maxTTL: int(opts.MaxTTL), strict: opts.StrictSanity}
	k.cache.init(opts.CacheCap)
	return k
}

// sanity runs the kernel's cheap adversarial rejections on a received
// header. ok is false on rejection, with the rejecting verdict (neither
// deliver nor rebroadcast). First-hop frames are exempt: the injecting AP
// vouches for its own submission, and the source header legitimately
// carries the full network TTL.
func (k *Kernel) sanity(view MapView, hdr *packet.Header, ttl int, firstHop bool) (Verdict, bool) {
	if firstHop {
		return Verdict{}, true
	}
	if k.maxTTL > 0 && ttl > k.maxTTL {
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
	v, ok := k.sanity(view, hdr, int(hdr.TTL), firstHop)
	if !ok {
		k.counts[v.Reason].Add(1)
	}
	return v, ok
}

// Decide is the cached, counted form of the package-level Decide: same
// verdict, but conduit reconstruction is amortized across every AP that
// shares this kernel and the decision is tallied into Counts.
func (k *Kernel) Decide(view MapView, hdr *packet.Header, self Self, firstHop bool) Verdict {
	return k.DecideTTL(view, hdr, int(hdr.TTL), self, firstHop)
}

// DecideTTL is Decide with the as-received TTL supplied out of band, for
// callers whose header field does not carry it (the simulator tracks
// remaining TTL per AP instead of rewriting the shared packet).
func (k *Kernel) DecideTTL(view MapView, hdr *packet.Header, ttl int, self Self, firstHop bool) Verdict {
	if v, ok := k.sanity(view, hdr, ttl, firstHop); !ok {
		k.counts[v.Reason].Add(1)
		return v
	}
	v := verdict(view, hdr, ttl, self, firstHop, func() *conduit.Region {
		return k.cache.get(view, hdr)
	})
	k.counts[v.Reason].Add(1)
	return v
}

// Region returns the (cached) conduit region for hdr, or nil for an
// unresolvable route.
func (k *Kernel) Region(view MapView, hdr *packet.Header) *conduit.Region {
	return k.cache.get(view, hdr)
}

// Counts snapshots the per-reason decision totals since the kernel was
// created.
func (k *Kernel) Counts() Counts {
	return Counts{
		FirstHop:     k.counts[ReasonFirstHop].Load(),
		TTLExpired:   k.counts[ReasonTTLExpired].Load(),
		Geocast:      k.counts[ReasonGeocast].Load(),
		InConduit:    k.counts[ReasonInConduit].Load(),
		OutOfConduit: k.counts[ReasonOutOfConduit].Load(),
		BadRoute:     k.counts[ReasonBadRoute].Load(),
		TTLInflated:  k.counts[ReasonTTLInflated].Load(),
		BadConduit:   k.counts[ReasonBadConduit].Load(),
	}
}

// CacheLen returns the number of cached conduit regions (bounded by the
// configured capacity).
func (k *Kernel) CacheLen() int { return k.cache.len() }

// regionCache is a bounded FIFO map from message ID to prefiltered conduit
// region; a message's flood wave is short relative to cache capacity.
// Unresolvable routes cache a nil region so a storm of bad-route frames
// costs one reconstruction attempt, not one per AP per frame.
type regionCache struct {
	mu       sync.Mutex
	disabled bool
	m        *fifo.Map[*conduit.Region]
}

func (c *regionCache) init(capacity int) {
	if capacity < 0 {
		c.disabled = true
		return
	}
	if capacity == 0 {
		capacity = DefaultCacheCap
	}
	c.m = fifo.New[*conduit.Region](capacity)
}

func (c *regionCache) get(view MapView, hdr *packet.Header) *conduit.Region {
	if c.disabled {
		return BuildRegion(view, hdr)
	}
	c.mu.Lock()
	if r, ok := c.m.Get(hdr.MsgID); ok {
		c.mu.Unlock()
		return r
	}
	c.mu.Unlock()

	// Build outside the lock: reconstruction is the expensive part, and a
	// duplicate build on a race is deterministic and harmless.
	r := BuildRegion(view, hdr)

	c.mu.Lock()
	defer c.mu.Unlock()
	if prior, ok := c.m.Get(hdr.MsgID); ok {
		return prior
	}
	c.m.Put(hdr.MsgID, r)
	return r
}

func (c *regionCache) len() int {
	if c.disabled {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.Len()
}
