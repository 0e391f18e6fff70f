package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"citymesh/internal/buildinggraph"
	"citymesh/internal/conduit"
	"citymesh/internal/fwd"
	"citymesh/internal/health"
	"citymesh/internal/packet"
	"citymesh/internal/routing"
	"citymesh/internal/sim"
)

// Rung identifies one step of the resilient delivery ladder. The ladder
// escalates from the cheapest recovery (send the same conduit route again)
// to the most expensive (a TTL-scoped flood), stopping at the first rung
// that delivers.
type Rung int

const (
	// RungDirect is the initial conduit-routed send — no recovery needed.
	RungDirect Rung = iota
	// RungRetry retransmits along the same route with fresh timing, the
	// cure for losses, collisions, and transient churn.
	RungRetry
	// RungWiden re-plans with a widened conduit W, recruiting buildings
	// adjacent to the failed corridor.
	RungWiden
	// RungMultipath sends copies along k spatially diverse routes.
	RungMultipath
	// RungFlood is the last resort: a TTL-scoped flood that reaches the
	// destination whenever the surviving mesh is physically connected.
	RungFlood
	// RungExhausted marks a ReliableResult whose every rung failed.
	RungExhausted
)

// String names the rung for tables and logs.
func (r Rung) String() string {
	switch r {
	case RungDirect:
		return "direct"
	case RungRetry:
		return "retry"
	case RungWiden:
		return "widen"
	case RungMultipath:
		return "multipath"
	case RungFlood:
		return "flood"
	case RungExhausted:
		return "exhausted"
	}
	return fmt.Sprintf("rung(%d)", int(r))
}

// NumRungs is the count of real ladder rungs (excluding RungExhausted).
const NumRungs = int(RungExhausted)

// The ladder's fixed shape beyond Retries and MaxRung.
const (
	// multipathK is the number of diverse routes at RungMultipath.
	multipathK = 3
	// backoffBase is the first backoff delay in seconds; each later attempt
	// doubles it up to backoffMax.
	backoffBase float64 = 0.05
	// backoffMax caps the exponential backoff, in seconds.
	backoffMax float64 = 2
	// jitterFrac randomizes each backoff within ±jitterFrac/2 of itself,
	// de-synchronizing recovery retransmissions from concurrent senders.
	jitterFrac float64 = 0.5
)

// widenFactors are the successive conduit-width multipliers RungWiden tries,
// each one attempt applied to the original width.
var widenFactors = [...]float64{2, 4}

// ReliableConfig tunes SendReliable.
type ReliableConfig struct {
	// Retries is how many same-route retransmissions RungRetry attempts.
	Retries int
	// MaxRung caps how far the ladder escalates: rungs above it are
	// skipped entirely, and the result reports RungExhausted when nothing
	// at or below delivered. Zero means unbounded (the full ladder) — a
	// direct-send-only ladder is not expressible, which is intentional:
	// callers that want one plain attempt should use Send. The federation
	// layer bounds legs at RungWiden so gateway failover, not a flood, is
	// the next recovery step after local widening fails.
	MaxRung Rung
	// Seed drives the backoff jitter and per-attempt simulation seeds;
	// the whole ladder is reproducible under a fixed seed.
	Seed int64
	// Health, when non-nil, makes the ladder self-healing: route planning
	// (direct, widen, and multipath rungs alike) consults the map's
	// per-building penalties so routes avoid suspected-dead regions, and
	// every attempt outcome is fed back into the map. The map's clock
	// advances by each backoff wait, so suspicion decays in the same sim
	// time the ladder spends.
	Health *health.Map
	// Evidence, with Health set, audits every failed conduit attempt for
	// per-neighbor delivery-evidence mismatches: an in-conduit AP that
	// provably received the frame with TTL to spare and did not forward it
	// is a liar (grayhole/blackhole), not collateral damage — honest
	// in-conduit APs always rebroadcast. Accused buildings take the
	// health map's mismatch bump instead of the gentler corridor-wide
	// health.FailBump, so penalty-weighted replanning routes around liars
	// specifically. The audit reads the attempt's simulation transcript,
	// the simulator's stand-in for the passive overhear evidence a deployed
	// AP collects.
	Evidence bool
}

// Typed validation errors returned (wrapped) by ReliableConfig.Validate and,
// for ErrBackoffInverted, by SendEventually.
var (
	// ErrNegativeRetries marks a Retries count below zero.
	ErrNegativeRetries = errors.New("negative Retries")
	// ErrBackoffInverted marks an EventualConfig BackoffMax set below its
	// BackoffBase: the healing backoff would cap below its own starting
	// point.
	ErrBackoffInverted = errors.New("BackoffMax below BackoffBase")
	// ErrBadMaxRung marks a MaxRung outside the real ladder: negative, or
	// at/above RungExhausted (which is a result marker, not a rung).
	ErrBadMaxRung = errors.New("MaxRung outside ladder")
)

// Validate rejects nonsensical ladders with typed errors (errors.Is
// against the Err* sentinels). Zero values are not errors — they select
// defaults — so only actively contradictory settings fail.
func (c ReliableConfig) Validate() error {
	if c.Retries < 0 {
		return fmt.Errorf("core: ReliableConfig.Retries = %d: %w", c.Retries, ErrNegativeRetries)
	}
	if c.MaxRung < 0 || c.MaxRung >= RungExhausted {
		return fmt.Errorf("core: ReliableConfig.MaxRung = %v: %w", c.MaxRung, ErrBadMaxRung)
	}
	return nil
}

// DefaultReliableConfig returns the evaluation ladder: 2 retries under
// seed 1. Every ladder widens x2 then x4, tries 3-route multipath and backs
// off from 50 ms.
func DefaultReliableConfig() ReliableConfig {
	return ReliableConfig{
		Retries: 2,
		Seed:    1,
	}
}

// ReliableAttempt records one transmission attempt of the ladder.
type ReliableAttempt struct {
	// Rung is the ladder step this attempt belongs to.
	Rung Rung
	// Backoff is the delay waited before this attempt (0 for the first).
	Backoff float64
	// Broadcasts is the transmission cost of this attempt.
	Broadcasts int
	// Delivered reports end-to-end success of this attempt.
	Delivered bool
	// DeliveryTime is the in-run simulation instant of delivery (0 when
	// the attempt did not deliver). A plain broadcast wave delivers within
	// milliseconds, but a flood overheard by a mobile carrier can deliver
	// long after — the physical carry time shows up here.
	DeliveryTime float64
	// Err records a planning failure ("" when the attempt transmitted).
	Err string
}

// ReliableResult is the outcome of a SendReliable ladder run.
type ReliableResult struct {
	// Delivered reports whether any rung succeeded.
	Delivered bool
	// Rung is the rung that delivered, or RungExhausted.
	Rung Rung
	// Attempts lists every attempt in order.
	Attempts []ReliableAttempt
	// TotalBroadcasts sums transmissions across all attempts — the price
	// of reliability, comparable against a single Send's Broadcasts.
	TotalBroadcasts int
	// TotalBackoff sums the backoff delays incurred before success (or
	// exhaustion).
	TotalBackoff float64
	// FirstAttempt keeps the plain-send outcome for overhead comparisons.
	FirstAttempt SendResult
}

// SendReliable wraps Send with end-to-end delivery confirmation and a
// deterministic escalation ladder: retransmit the same route, re-plan with
// a widened conduit, k-disjoint multipath, and finally a TTL-scoped flood.
// Between attempts it waits (in simulated time accounting) an
// exponentially-growing, jittered backoff. The run stops at the first rung
// that delivers and records which rung won plus the total overhead.
//
// With ReliableConfig.Health set the ladder is self-healing: planning
// routes around buildings the map suspects dead, and every outcome —
// per-route success and failure, full-ladder exhaustion — feeds back into
// the map for the next send.
func (n *Network) SendReliable(src, dst int, payload []byte, simCfg sim.Config, rcfg ReliableConfig) (ReliableResult, error) {
	if src < 0 || src >= n.City.NumBuildings() || dst < 0 || dst >= n.City.NumBuildings() {
		return ReliableResult{}, fmt.Errorf("core: building out of range (%d, %d of %d)",
			src, dst, n.City.NumBuildings())
	}
	if err := rcfg.Validate(); err != nil {
		return ReliableResult{}, err
	}
	hm := rcfg.Health
	var vp buildinggraph.VertexPenalty
	if hm != nil {
		if f := hm.PenaltyFunc(); f != nil {
			vp = f
		}
	}
	// The backoff rng comes from the network's free list; reseeding it
	// restarts exactly the stream a fresh rand.NewSource(rcfg.Seed) gives.
	rng := n.rngs.Get()
	if rng == nil {
		rng = rand.New(rand.NewSource(rcfg.Seed))
	} else {
		rng.Seed(rcfg.Seed)
	}
	defer n.rngs.Put(rng)
	out := ReliableResult{Rung: RungExhausted}
	// maxAllows gates each rung under MaxRung (0 = full ladder). Skipped
	// rungs record no attempt and draw no backoff — the rng stream is
	// reproducible for a fixed config, which is all determinism needs.
	maxAllows := func(r Rung) bool {
		return rcfg.MaxRung == 0 || r <= rcfg.MaxRung
	}

	// backoff computes the jittered delay before attempt i (0-based; the
	// very first transmission waits nothing). Drawn unconditionally so the
	// rng stream — and thus every later jitter — is reproducible
	// regardless of which rungs run.
	attemptIdx := 0
	backoff := func() float64 {
		u := rng.Float64()
		if attemptIdx == 0 {
			attemptIdx++
			return 0
		}
		b := backoffBase * math.Pow(2, float64(attemptIdx-1))
		if b > backoffMax {
			b = backoffMax
		}
		attemptIdx++
		return b * (1 - jitterFrac/2 + u*jitterFrac)
	}
	// attemptSim derives a distinct deterministic simulator seed per
	// attempt so retries see fresh loss and jitter realizations.
	attemptSim := func(i int) sim.Config {
		c := simCfg
		c.Seed = simCfg.Seed + int64(i)*0x9e3779b9
		if rcfg.Evidence && hm != nil {
			// The mismatch audit needs per-AP reception evidence.
			c.RecordTranscript = true
		}
		return c
	}
	record := func(rung Rung, wait float64, broadcasts int, delivered bool, deliveryTime float64, errStr string) {
		out.Attempts = append(out.Attempts, ReliableAttempt{
			Rung: rung, Backoff: wait, Broadcasts: broadcasts,
			Delivered: delivered, DeliveryTime: deliveryTime, Err: errStr,
		})
		out.TotalBroadcasts += broadcasts
		out.TotalBackoff += wait
		if hm != nil {
			// The map's suspicion decays in the same sim time the ladder
			// spends waiting.
			hm.Advance(wait)
		}
		if delivered && !out.Delivered {
			out.Delivered = true
			out.Rung = rung
			if hm != nil {
				hm.ObserveDelivered(dst)
			}
		}
	}

	// Rung 0 + 1: the direct send, then same-route retransmissions. Under
	// a health map the "direct" route is already damage-aware: the planner
	// pays the suspicion penalty through suspect buildings and detours.
	path, route, planErr := n.planPath(src, dst, vp)
	if planErr == nil {
		retries := rcfg.Retries
		if !maxAllows(RungRetry) {
			retries = 0
		}
		for try := 0; try <= retries; try++ {
			rung := RungDirect
			if try > 0 {
				rung = RungRetry
			}
			wait := backoff()
			pkt, err := n.NewPacket(route, payload)
			if err != nil {
				return out, err
			}
			res, err := n.Engine().Run(pkt, attemptSim(len(out.Attempts)))
			if err != nil {
				return out, err
			}
			if try == 0 {
				out.FirstAttempt = SendResult{Route: route, Packet: pkt, Sim: res, IdealTransmissions: -1}
				if ideal, err := n.Mesh.MinTransmissions(src, dst); err == nil {
					out.FirstAttempt.IdealTransmissions = ideal
				}
			}
			record(rung, wait, res.Broadcasts, res.Delivered, res.DeliveryTime, "")
			// Feed back the uncompressed path: conduit compression strips
			// the interior buildings a straight corridor traverses, and
			// those are exactly where the evidence is.
			n.observeHealth(hm, path, res.Delivered)
			if res.Delivered {
				return out, nil
			}
			if rcfg.Evidence {
				n.observeEvidence(hm, pkt, res, src, dst)
			}
		}
	} else {
		record(RungDirect, backoff(), 0, false, 0, planErr.Error())
	}

	// Rung 2: widen the conduit, recruiting rebroadcasters around the
	// failed corridor.
	if planErr == nil && len(path) > 0 && maxAllows(RungWiden) {
		for _, f := range widenFactors {
			wait := backoff()
			wide, err := conduit.Compress(n.City, path, n.Cfg.ConduitWidth*f)
			if err != nil {
				record(RungWiden, wait, 0, false, 0, err.Error())
				continue
			}
			pkt, err := n.NewPacket(wide, payload)
			if err != nil {
				record(RungWiden, wait, 0, false, 0, err.Error())
				continue
			}
			res, err := n.Engine().Run(pkt, attemptSim(len(out.Attempts)))
			if err != nil {
				return out, err
			}
			record(RungWiden, wait, res.Broadcasts, res.Delivered, res.DeliveryTime, "")
			n.observeHealth(hm, path, res.Delivered)
			if res.Delivered {
				return out, nil
			}
			if rcfg.Evidence {
				n.observeEvidence(hm, pkt, res, src, dst)
			}
		}
	}

	// Rung 3: k spatially diverse routes (damage-aware under a health map,
	// so the diversity penalties compose with the suspicion penalties).
	if maxAllows(RungMultipath) {
		wait := backoff()
		mp, err := n.MultipathSend(src, dst, payload, multipathK, attemptSim(len(out.Attempts)), vp)
		if err != nil {
			record(RungMultipath, wait, 0, false, 0, err.Error())
		} else {
			mpTime := 0.0
			for _, res := range mp.Results {
				if res.Delivered && (mpTime == 0 || res.DeliveryTime < mpTime) {
					mpTime = res.DeliveryTime
				}
			}
			record(RungMultipath, wait, mp.TotalBroadcasts, mp.Delivered, mpTime, "")
			// Feed back each copy's fate individually: the route that
			// delivered is healthy evidence even when another copy died.
			for i, res := range mp.Results {
				if i < len(mp.Paths) {
					n.observeHealth(hm, mp.Paths[i], res.Delivered)
				}
			}
			if mp.Delivered {
				return out, nil
			}
		}
	}

	// Rung 4: scoped flood. The packet carries only {src, dst} waypoints
	// (no conduit constrains forwarding under the flood policy) and a TTL
	// bounding the blast radius to a multiple of the predicted route
	// length when one exists.
	if maxAllows(RungFlood) {
		wait := backoff()
		ttl := n.Cfg.TTL
		if scope := 4*len(path) + 8; len(path) > 0 && scope < int(ttl) {
			ttl = uint8(scope)
		}
		seq := n.msgSeq.Add(1)
		pkt := &packet.Packet{
			Header: packet.Header{
				TTL:       ttl,
				MsgID:     msgID(n.Cfg.APSeed, seq),
				Waypoints: []uint32{uint32(src), uint32(dst)},
			},
			Payload: payload,
		}
		res, err := n.Engine().RunPolicy(routing.Flood{}, pkt, attemptSim(len(out.Attempts)))
		if err != nil {
			return out, err
		}
		record(RungFlood, wait, res.Broadcasts, res.Delivered, res.DeliveryTime, "")
	}
	if hm != nil && !out.Delivered {
		// Even the scoped flood failed: the destination is a partition
		// candidate (see health.Map.Partitioned and SendEventually).
		hm.ObserveExhausted(dst)
	}
	return out, nil
}

// observeEvidence is the ReliableConfig.Evidence audit: after a failed
// conduit attempt, accuse every in-conduit AP that received the frame with
// TTL to spare yet never forwarded it. Out-of-conduit silence is correct
// behavior and endpoint buildings are excluded (the source always
// transmits; the destination's state is partition classification's job), so
// what remains is exactly the grayhole/blackhole signature. Accusations are
// per building (deduplicated, sorted for determinism) and carry the
// health map's mismatch bump.
func (n *Network) observeEvidence(hm *health.Map, pkt *packet.Packet, res sim.Result, src, dst int) {
	if hm == nil || res.Delivered || len(res.Transcript) == 0 {
		return
	}
	region := fwd.BuildRegion(n.City, &pkt.Header)
	if region == nil {
		return
	}
	accused := make(map[int]bool)
	for ap := range res.Transcript {
		tr := &res.Transcript[ap]
		if !tr.Received || tr.Forwarded {
			continue
		}
		if tr.Hops >= int(pkt.Header.TTL)-1 {
			continue // the wave legitimately died of TTL here
		}
		b := n.Mesh.APs[ap].Building
		if b < 0 || b == src || b == dst {
			continue
		}
		self := fwd.Self{Pos: n.Mesh.APs[ap].Pos, Building: b}
		if !region.Contains(fwd.TestPoint(n.City, self)) {
			continue
		}
		accused[b] = true
	}
	if len(accused) == 0 {
		return
	}
	bs := make([]int, 0, len(accused))
	for b := range accused {
		bs = append(bs, b)
	}
	sort.Ints(bs)
	hm.ObserveMismatch(bs)
}

// observeHealth feeds one route's attempt outcome into the health map. Only
// the route's *interior* waypoints carry evidence — the sender is alive by
// definition and the destination's reachability is tracked separately by
// partition classification. On failure, half of health.FailBump also spreads to
// the graph neighbors of each interior waypoint: disaster damage is
// spatially correlated (the disk and flood injectors kill regions, not
// points), so a failed corridor implicates its surroundings.
func (n *Network) observeHealth(hm *health.Map, waypoints []int, delivered bool) {
	if hm == nil || len(waypoints) < 3 {
		return
	}
	interior := waypoints[1 : len(waypoints)-1]
	if delivered {
		hm.ObserveSuccess(interior)
		return
	}
	hm.ObserveFailure(interior)
	spread := health.FailBump / 2
	for _, w := range interior {
		n.Graph.Neighbors(w, func(nb int, _ float64) {
			hm.AddSuspicion(nb, spread)
		})
	}
}
