package internetwork

import (
	"fmt"
	"math"

	"citymesh/internal/core"
	"citymesh/internal/packet"
	"citymesh/internal/sim"
)

// LegReason classifies the outcome of one attempted intra-region leg, so
// experiments can partition failures by cause instead of seeing a bare
// undelivered flag.
type LegReason int

const (
	// LegOK delivered.
	LegOK LegReason = iota
	// LegPassthrough is a degenerate leg whose source and destination
	// coincide (sender at the gateway, gateway-to-gateway transit within
	// one region): nothing to simulate, trivially delivered.
	LegPassthrough
	// LegPlanFailed could not plan a route inside the region (the mesh is
	// partitioned between the leg's endpoints, or an endpoint is
	// unroutable).
	LegPlanFailed
	// LegMeshUndelivered planned and transmitted but the region's
	// escalation ladder exhausted without delivery.
	LegMeshUndelivered
)

// String implements fmt.Stringer.
func (r LegReason) String() string {
	switch r {
	case LegOK:
		return "ok"
	case LegPassthrough:
		return "passthrough"
	case LegPlanFailed:
		return "plan-failed"
	case LegMeshUndelivered:
		return "mesh-undelivered"
	default:
		return fmt.Sprintf("leg-reason(%d)", int(r))
	}
}

// FailCause classifies why an inter-region send failed end to end.
type FailCause int

const (
	// FailNone: the send delivered.
	FailNone FailCause = iota
	// FailMeshUndelivered: a same-region send's single leg failed.
	FailMeshUndelivered
	// FailNoLinkPath: the summary graph has no surviving link path to the
	// destination region (initially, or after banning failed regions).
	FailNoLinkPath
	// FailNoGatewayPath: an endpoint region exhausted every gateway
	// combination — the source could not reach any exit gateway, or no
	// entry gateway could reach the destination building.
	FailNoGatewayPath
	// FailRerouteExhausted: transit-region failures exceeded the reroute
	// budget.
	FailRerouteExhausted
)

// String implements fmt.Stringer.
func (c FailCause) String() string {
	switch c {
	case FailNone:
		return "none"
	case FailMeshUndelivered:
		return "mesh-undelivered"
	case FailNoLinkPath:
		return "no-link-path"
	case FailNoGatewayPath:
		return "no-gateway-path"
	case FailRerouteExhausted:
		return "reroute-exhausted"
	default:
		return fmt.Sprintf("fail-cause(%d)", int(c))
	}
}

// Leg is one attempted intra-region traversal. Failed gateway combinations
// are recorded too — a delivered send through a region with a dead primary
// gateway shows the dead attempt followed by the failover attempt.
type Leg struct {
	Region   RegionID
	Src, Dst int
	// Gateway is the gateway building this leg exercised: the exit
	// gateway for source/transit regions, the entry gateway for the
	// destination region, -1 for a same-region send with no gateway
	// involved. Surfacing it is what makes failover observable.
	Gateway int
	// Delivered reports this leg's success.
	Delivered bool
	// Reason classifies the outcome.
	Reason LegReason
	// Err carries the route-planning error string for LegPlanFailed.
	Err string
	// Rung is the ladder rung that delivered (or RungExhausted).
	Rung core.Rung
	// Attempts is the leg's ladder length.
	Attempts int
	// Broadcasts is the leg's total mesh transmissions.
	Broadcasts int
	// DeliveryTime is the leg's in-region delivery latency including
	// ladder backoff (0 when undelivered or passthrough).
	DeliveryTime float64
	// Waypoints counts the leg route's conduit waypoints (0 for
	// passthrough legs) — the unit a flat federation-wide source route
	// would have to carry with global addressing.
	Waypoints int
	// HeaderBits and RouteBits are the leg's level-0 header cost (the
	// first attempt's packet), for the hierarchical-vs-flat header
	// accounting. Zero for passthrough and plan-failed legs.
	HeaderBits, RouteBits int
}

// SendResult is the outcome of an inter-region send.
type SendResult struct {
	// RegionPath is the region sequence actually traversed (after any
	// reroutes), up to where the send succeeded or failed.
	RegionPath []RegionID
	// PlannedPath is the initial level-1 path before failures forced
	// reroutes.
	PlannedPath []RegionID
	// Legs lists every attempted leg, including failed gateway combos.
	Legs []Leg
	// Delivered reports end-to-end success.
	Delivered bool
	// Failure classifies an undelivered send (FailNone when Delivered).
	Failure FailCause
	// LinkLatency sums the cost (latency + transfer time) of the link
	// hops actually crossed.
	LinkLatency float64
	// LinkHops counts the inter-region links crossed.
	LinkHops int
	// TotalBroadcasts sums mesh transmissions across all legs.
	TotalBroadcasts int
	// Reroutes counts level-1 re-plans forced by untraversable regions.
	Reroutes int
	// GatewayFailovers counts delivered legs that used a non-primary
	// gateway — the multi-gateway mechanism doing its job.
	GatewayFailovers int
	// PrefixBits is the size of the packet.RegionPrefix this send carries
	// on each long-haul link: the constant-size hierarchical address that
	// replaces a region source route.
	PrefixBits int
}

// EndToEndLatency estimates total delivery latency — link hops plus
// delivered mesh legs. The ok result is false (and the estimate NaN) when
// the send did not deliver: a partial sum over the legs that happened to
// work is not a latency.
func (r SendResult) EndToEndLatency() (float64, bool) {
	if !r.Delivered {
		return math.NaN(), false
	}
	t := r.LinkLatency
	for _, leg := range r.Legs {
		if leg.Reason == LegOK {
			t += leg.DeliveryTime
		}
	}
	return t, true
}

// SendOptions tunes SendOpts.
type SendOptions struct {
	// Seed drives the level-1 tiebreak and the per-leg ladder seeds; a
	// fixed seed makes the whole send reproducible.
	Seed int64
}

// DefaultMaxReroutes bounds level-1 re-plans per send.
const DefaultMaxReroutes = 3

// DefaultLegReliable is the per-leg ladder: one retry, then a widened
// conduit, and stop — RungWiden-bounded because the federation's next
// recovery step is a *different gateway*, which is cheaper and more
// targeted than flooding a city whose mesh just demonstrated a problem.
func DefaultLegReliable() core.ReliableConfig {
	return core.ReliableConfig{Retries: 1, MaxRung: core.RungWiden, Seed: 1}
}

// Send delivers a payload from src to dst across the inter-network with
// default options: conduit legs within regions, link hops between
// gateways, failover across gateways, and deterministic re-routing around
// failed links and regions.
//
// The escalation order per region hop is the federation-level ladder:
// retry/widen inside the leg (core.SendReliable, RungWiden-bounded) →
// alternate gateway (the next entries×exits combination) → alternate link
// path (ban the region, re-plan at level 1). A returned error means API
// misuse (unknown region, building out of range); every routing or
// delivery failure is reported in the result's Failure and per-leg
// Reasons, never swallowed.
func (in *Internetwork) Send(src, dst Address, payload []byte, simCfg sim.Config) (SendResult, error) {
	return in.SendOpts(src, dst, payload, simCfg, SendOptions{})
}

// SendOpts is Send with explicit options.
func (in *Internetwork) SendOpts(src, dst Address, payload []byte, simCfg sim.Config, opts SendOptions) (SendResult, error) {
	sIdx, ok := in.index[src.Region]
	if !ok {
		return SendResult{}, fmt.Errorf("internetwork: unknown region %q", src.Region)
	}
	dIdx, ok := in.index[dst.Region]
	if !ok {
		return SendResult{}, fmt.Errorf("internetwork: unknown region %q", dst.Region)
	}
	srcNet := in.regions[src.Region].Net
	dstNet := in.regions[dst.Region].Net
	if src.Building < 0 || src.Building >= srcNet.City.NumBuildings() {
		return SendResult{}, fmt.Errorf("internetwork: source building %d out of range", src.Building)
	}
	if dst.Building < 0 || dst.Building >= dstNet.City.NumBuildings() {
		return SendResult{}, fmt.Errorf("internetwork: destination building %d out of range", dst.Building)
	}
	rcfg := DefaultLegReliable()

	out := SendResult{
		PrefixBits: (&packet.RegionPrefix{
			SrcRegion: uint32(sIdx), DstRegion: uint32(dIdx),
			DstBuilding: uint32(dst.Building), TTL: 16,
		}).Bits(),
	}

	// sendLeg runs one intra-region ladder with deterministic per-leg
	// seeds derived from the leg's position in the attempt sequence.
	sendLeg := func(r *Region, gw, legSrc, legDst int) (Leg, error) {
		legIdx := len(out.Legs)
		legSim := simCfg
		legSim.Seed = simCfg.Seed + int64(legIdx+1)*0x9e3779b9
		legR := rcfg
		legR.Seed = int64(tieHash(rcfg.Seed+opts.Seed, legIdx))
		res, err := r.Net.SendReliable(legSrc, legDst, payload, legSim, legR)
		if err != nil {
			return Leg{}, err
		}
		leg := Leg{
			Region: r.ID, Src: legSrc, Dst: legDst, Gateway: gw,
			Delivered: res.Delivered, Rung: res.Rung,
			Attempts: len(res.Attempts), Broadcasts: res.TotalBroadcasts,
		}
		if res.Delivered {
			leg.Reason = LegOK
			last := res.Attempts[len(res.Attempts)-1]
			leg.DeliveryTime = res.TotalBackoff + last.DeliveryTime
		} else if len(res.Attempts) > 0 && res.Attempts[0].Err != "" {
			leg.Reason = LegPlanFailed
			leg.Err = res.Attempts[0].Err
		} else {
			leg.Reason = LegMeshUndelivered
		}
		if pkt := res.FirstAttempt.Packet; pkt != nil {
			leg.HeaderBits = pkt.Header.HeaderBits()
			leg.RouteBits = pkt.Header.RouteBits()
			leg.Waypoints = len(pkt.Header.Waypoints)
		}
		out.TotalBroadcasts += res.TotalBroadcasts
		return leg, nil
	}

	// Same-region send: one level-0 leg, no hierarchy involved.
	if sIdx == dIdx {
		out.RegionPath = []RegionID{src.Region}
		out.PlannedPath = out.RegionPath
		out.PrefixBits = 0 // never leaves the region, carries no prefix
		if src.Building == dst.Building {
			out.Legs = append(out.Legs, Leg{
				Region: src.Region, Src: src.Building, Dst: dst.Building,
				Gateway: -1, Delivered: true, Reason: LegPassthrough,
			})
			out.Delivered = true
			return out, nil
		}
		leg, err := sendLeg(in.regions[src.Region], -1, src.Building, dst.Building)
		if err != nil {
			return out, err
		}
		out.Legs = append(out.Legs, leg)
		out.Delivered = leg.Delivered
		if !out.Delivered {
			out.Failure = FailMeshUndelivered
		}
		return out, nil
	}

	// traverse crosses one region: from any candidate entry building to
	// any candidate exit, trying combinations entry-major in failover
	// priority order. Every attempt is recorded as a Leg.
	traverse := func(rIdx int, entries, exits []int, final bool) (exitB int, delivered bool, err error) {
		r := in.regions[in.order[rIdx]]
		for _, e := range entries {
			// A zero-cost passthrough (entry already is a valid exit —
			// sender at the gateway, transit staying on one gateway,
			// gateway hosting the destination) beats any simulated leg.
			for _, x := range exits {
				if e == x {
					out.Legs = append(out.Legs, Leg{
						Region: r.ID, Src: e, Dst: x, Gateway: e,
						Delivered: true, Reason: LegPassthrough,
					})
					return x, true, nil
				}
			}
			for _, x := range exits {
				gw := x
				if final {
					gw = e
				}
				leg, err := sendLeg(r, gw, e, x)
				if err != nil {
					return 0, false, err
				}
				out.Legs = append(out.Legs, leg)
				if leg.Delivered {
					return x, true, nil
				}
			}
		}
		return 0, false, nil
	}
	// countFailover tallies a delivered traversal whose gateway endpoint
	// was not the region's primary.
	countFailover := func(rIdx, gw int) {
		r := in.regions[in.order[rIdx]]
		if gw != r.Gateways[0] {
			for _, g := range r.Gateways {
				if g == gw {
					out.GatewayFailovers++
					return
				}
			}
		}
	}

	path, links, ok := in.l1Path(sIdx, dIdx, opts.Seed, 0, len(payload), nil)
	if !ok {
		out.Failure = FailNoLinkPath
		out.RegionPath = []RegionID{src.Region}
		out.PlannedPath = out.RegionPath
		return out, nil
	}
	for _, ri := range path {
		out.PlannedPath = append(out.PlannedPath, in.order[ri])
	}

	banned := map[int]bool{}
	entries := []int{src.Building}
	prevIdx, prevExit := -1, -1
	pos := 0
	appendTraversed := func(rIdx int) {
		id := in.order[rIdx]
		if n := len(out.RegionPath); n == 0 || out.RegionPath[n-1] != id {
			out.RegionPath = append(out.RegionPath, id)
		}
	}
	for {
		rIdx := path[pos]
		final := rIdx == dIdx
		var exits []int
		if final {
			exits = []int{dst.Building}
		} else {
			exits = in.liveGateways(rIdx)
		}
		exitB, delivered, err := traverse(rIdx, entries, exits, final)
		if err != nil {
			return out, err
		}
		if delivered {
			appendTraversed(rIdx)
			if final {
				last := out.Legs[len(out.Legs)-1]
				countFailover(rIdx, last.Gateway)
				out.Delivered = true
				return out, nil
			}
			countFailover(rIdx, exitB)
			l := in.links[links[pos]]
			out.LinkLatency += linkCost(l, len(payload))
			out.LinkHops++
			prevIdx, prevExit = rIdx, exitB
			pos++
			entries = in.liveGateways(path[pos])
			continue
		}
		// The region could not be traversed from any entry×exit combo.
		if prevIdx < 0 || final {
			// An endpoint region exhausted its gateways: nothing to
			// reroute around.
			out.Failure = FailNoGatewayPath
			return out, nil
		}
		// Transit failure: ban the region and re-plan from where we
		// physically are (the previous region's exit gateway). The reroute
		// count doubles as the constraint-schedule step: conduit, widened
		// conduit, then unrestricted.
		banned[rIdx] = true
		out.Reroutes++
		if out.Reroutes > DefaultMaxReroutes {
			out.Failure = FailRerouteExhausted
			return out, nil
		}
		path, links, ok = in.l1Path(prevIdx, dIdx, opts.Seed, out.Reroutes, len(payload), banned)
		if !ok {
			out.Failure = FailNoLinkPath
			return out, nil
		}
		pos = 0
		entries = []int{prevExit}
	}
}
