// Byzantine misbehavior and receiver-side defenses for the simulator.
//
// The paper's open-admission premise — any surviving AP may join the mesh —
// means some APs will not merely be dead (the faults package) but *wrong*:
// dropping transit traffic, replaying stale frames, corrupting payloads,
// inflating TTLs, or injecting forged traffic outright. An Adversary assigns
// one such behavior per AP; the engine executes the behavior at that AP's
// accept/forward points, so every Policy and every FailureSchedule composes
// with it unchanged (an AP that is both flooded and Byzantine is simply
// down: the crash wins).
//
// Defense is the honest receiver's cheap sanity stack, the simulator twin of
// the fwd kernel's sanity rejections and the live agent's rate limiting:
// reject frames whose as-received TTL exceeds the deployment maximum, frames
// whose bytes fail integrity re-validation, geocasts claiming an absurd
// target disc, and frame storms above a per-neighbor rate. Both knobs
// default to off; a Config with a nil Adversary and a zero Defense runs the
// exact event and RNG sequence it always did.
//
// Scope notes: forged messages propagate as their own flood/geocast waves
// but do not fire Probe events (the probe stream documents the real packet)
// and are not picked up by mobile carriers; honest nodes cannot distinguish
// a tainted (corrupted) copy of the real packet without Defense.TamperCheck,
// which models CRC plus kernel sanity on the frame bytes.
package sim

import "citymesh/internal/geo"

// APBehavior classifies one AP's misbehavior. BehaviorHonest is the zero
// value: an AP absent from Adversary.Behaviors follows the protocol.
type APBehavior uint8

const (
	// BehaviorHonest follows the protocol.
	BehaviorHonest APBehavior = iota
	// BehaviorBlackhole receives and silently consumes: no delivery, no
	// forwarding. Equivalent to Config.BlackholeSet membership.
	BehaviorBlackhole
	// BehaviorGrayhole forwards probabilistically: each policy-approved
	// forward is suppressed with Adversary.DropProb — harder to detect and
	// to route around than a blackhole because some traffic gets through.
	BehaviorGrayhole
	// BehaviorReplayer forwards normally but also retransmits its stored
	// copy of the frame every ReplayInterval until ReplayHorizon, without
	// decrementing TTL — a stale-frame storm.
	BehaviorReplayer
	// BehaviorCorruptor forwards a corrupted copy of every frame it
	// receives (flipped payload/TTL/conduit bytes), unconditionally and
	// regardless of the conduit test. Receptions downstream of a corruptor
	// are tainted; an undefended receiver cannot tell and has its dedup
	// cache poisoned by the corrupt copy.
	BehaviorCorruptor
	// BehaviorTTLReset rewrites the TTL of every frame it forwards back up
	// to Adversary.ResetTTL, unbounding scoped floods.
	BehaviorTTLReset
	// BehaviorSpoofer injects forged geocast frames at InjectRate claiming
	// a GeocastRadius target disc — honest APs inside the claimed disc
	// rebroadcast them.
	BehaviorSpoofer
	// BehaviorFlooder injects forged flood frames at InjectRate with
	// ForgedTTL — pure resource exhaustion.
	BehaviorFlooder

	numBehaviors
)

// String implements fmt.Stringer for tables and flag help.
func (b APBehavior) String() string {
	switch b {
	case BehaviorHonest:
		return "honest"
	case BehaviorBlackhole:
		return "blackhole"
	case BehaviorGrayhole:
		return "grayhole"
	case BehaviorReplayer:
		return "replayer"
	case BehaviorCorruptor:
		return "corruptor"
	case BehaviorTTLReset:
		return "ttlreset"
	case BehaviorSpoofer:
		return "spoofer"
	case BehaviorFlooder:
		return "flooder"
	default:
		return "unknown"
	}
}

// Adversary behavior defaults. Each is used when the corresponding knob is
// zero, so a bare Adversary{Behaviors: ...} is fully specified.
const (
	// DefaultGrayholeDropProb is the grayhole forward-suppression
	// probability.
	DefaultGrayholeDropProb = 0.5
	// DefaultReplayInterval is the replayer retransmission period in
	// seconds.
	DefaultReplayInterval = 1.0
	// DefaultReplayHorizon stops replays after this sim time.
	DefaultReplayHorizon = 30.0
	// DefaultResetTTL is the TTL a TTL-resetter rewrites onto forwarded
	// frames.
	DefaultResetTTL = 255
	// DefaultInjectRate is the forged-frame injection rate (frames/s) of
	// spoofers and flooders.
	DefaultInjectRate = 2.0
	// DefaultInjectHorizon stops forged injections after this sim time.
	DefaultInjectHorizon = 10.0
	// DefaultForgedTTL is the TTL on injected forged frames.
	DefaultForgedTTL = 16
	// DefaultSpoofRadius is the spoofer's claimed geocast disc radius in
	// meters: large enough to cover any preset city, the worst case an
	// unchecked geocast admits.
	DefaultSpoofRadius = 100_000.0
)

// Adversary assigns Byzantine behaviors to APs plus the behavior knobs.
// It is plain data, safe for concurrent reads, and is consulted only for
// APs (mobile carriers are never Byzantine). A nil *Adversary — or one with
// an empty Behaviors map — changes nothing about a run, including its RNG
// stream.
type Adversary struct {
	// Behaviors maps AP index to misbehavior; absent APs are honest.
	Behaviors map[int]APBehavior

	// DropProb is the grayhole forward-suppression probability in [0, 1]
	// (0 selects DefaultGrayholeDropProb).
	DropProb float64
	// ReplayInterval is the replayer retransmission period in seconds.
	ReplayInterval float64
	// ReplayHorizon stops replays after this sim time.
	ReplayHorizon float64
	// ReplayBuffer bounds how many distinct frames a replayer retransmits.
	// The single-packet engine holds at most one; the knob exists so the
	// live-agent leg and future multi-message runs share one config shape.
	ReplayBuffer int
	// ResetTTL is the TTL a TTL-resetter rewrites onto forwarded frames
	// (0 selects DefaultResetTTL).
	ResetTTL uint8
	// InjectRate is the spoofer/flooder forged-frame rate in frames/s.
	InjectRate float64
	// InjectHorizon stops forged injections after this sim time.
	InjectHorizon float64
	// ForgedTTL is the TTL on injected forged frames.
	ForgedTTL uint8
	// GeocastRadius is the spoofer's claimed target disc radius in meters.
	GeocastRadius float64
}

// BehaviorOf returns ap's assigned behavior (BehaviorHonest when a is nil
// or the AP is unassigned).
func (a *Adversary) BehaviorOf(ap int) APBehavior {
	if a == nil {
		return BehaviorHonest
	}
	return a.Behaviors[ap]
}

// IsByzantine reports whether ap has any misbehavior assigned.
func (a *Adversary) IsByzantine(ap int) bool { return a.BehaviorOf(ap) != BehaviorHonest }

// NumByzantine counts assigned (non-honest) APs.
func (a *Adversary) NumByzantine() int {
	if a == nil {
		return 0
	}
	n := 0
	for _, b := range a.Behaviors {
		if b != BehaviorHonest {
			n++
		}
	}
	return n
}

func (a *Adversary) dropProb() float64 {
	if a.DropProb <= 0 {
		return DefaultGrayholeDropProb
	}
	return a.DropProb
}

func (a *Adversary) replayInterval() float64 {
	if a.ReplayInterval <= 0 {
		return DefaultReplayInterval
	}
	return a.ReplayInterval
}

func (a *Adversary) replayHorizon() float64 {
	if a.ReplayHorizon <= 0 {
		return DefaultReplayHorizon
	}
	return a.ReplayHorizon
}

func (a *Adversary) resetTTL() int {
	if a.ResetTTL == 0 {
		return DefaultResetTTL
	}
	return int(a.ResetTTL)
}

func (a *Adversary) injectRate() float64 {
	if a.InjectRate <= 0 {
		return DefaultInjectRate
	}
	return a.InjectRate
}

func (a *Adversary) injectHorizon() float64 {
	if a.InjectHorizon <= 0 {
		return DefaultInjectHorizon
	}
	return a.InjectHorizon
}

func (a *Adversary) forgedTTL() int {
	if a.ForgedTTL == 0 {
		return DefaultForgedTTL
	}
	return int(a.ForgedTTL)
}

func (a *Adversary) spoofRadius() float64 {
	if a.GeocastRadius <= 0 {
		return DefaultSpoofRadius
	}
	return a.GeocastRadius
}

// Defense is the honest receiver's sanity stack — the simulator twin of the
// fwd kernel's cheap rejections plus the live agent's per-source rate
// limiting. The zero value disables everything (the undefended baseline).
type Defense struct {
	// MaxTTL rejects receptions whose as-received TTL exceeds it — the
	// signature of a Byzantine TTL-resetter. 0 disables. Set it to the
	// deployment's network TTL: no honest frame can exceed that.
	MaxTTL uint8
	// TamperCheck rejects receptions of corrupted frames (a corruptor's
	// output and everything honest nodes relay of it) — modeling CRC plus
	// kernel route-shape sanity on the received bytes.
	TamperCheck bool
	// NeighborRate caps frames/s accepted per (receiver, sender) pair via
	// a token bucket, throttling replay and forged-frame storms. 0
	// disables.
	NeighborRate float64
	// NeighborBurst is the pair bucket's burst; 0 derives 2x rate.
	NeighborBurst float64
	// MaxGeocastRadius rejects geocast frames claiming a target disc
	// larger than this many meters — no legitimate emergency geocast
	// covers the whole metro. 0 disables.
	MaxGeocastRadius float64
}

// Any reports whether any defense is enabled.
func (d Defense) Any() bool {
	return d.MaxTTL > 0 || d.TamperCheck || d.NeighborRate > 0 || d.MaxGeocastRadius > 0
}

// pairKey packs a (receiver, sender) node pair for the defense rate buckets.
func pairKey(to, from int) uint64 { return uint64(uint32(to))<<32 | uint64(uint32(from)) }

// pairBucket is one (receiver, sender) token bucket, sim-time based.
type pairBucket struct {
	tokens float64
	last   float64
}

// rateGate is the Defense.NeighborRate enforcement: one lazily-created
// token bucket per communicating pair, refilled in sim time. Bounded by the
// number of in-range pairs that actually exchange frames in one run. It
// lives on the pooled scratch with its buckets held by value, so a defended
// run reuses the previous run's table instead of allocating a bucket per
// pair.
type rateGate struct {
	on          bool
	rate, burst float64
	buckets     map[uint64]pairBucket
}

// reset arms the gate for a run under d (or disarms it) and forgets every
// pair.
func (g *rateGate) reset(d Defense) {
	g.on = d.NeighborRate > 0
	if !g.on {
		return
	}
	g.rate, g.burst = d.NeighborRate, d.NeighborBurst
	if g.burst <= 0 {
		g.burst = 2 * d.NeighborRate
	}
	if g.buckets == nil {
		g.buckets = make(map[uint64]pairBucket)
	}
	clear(g.buckets)
}

// allow charges one frame from `from` arriving at `to` at sim time t.
func (g *rateGate) allow(to, from int, t float64) bool {
	key := pairKey(to, from)
	b, seen := g.buckets[key]
	if !seen {
		b = pairBucket{tokens: g.burst, last: t}
	}
	b.tokens += (t - b.last) * g.rate
	b.last = t
	if b.tokens > g.burst {
		b.tokens = g.burst
	}
	ok := b.tokens >= 1
	if ok {
		b.tokens--
	}
	g.buckets[key] = b
	return ok
}

// forgedMsg is one injected forged message's propagation state: where it
// came from, what it claims, and which nodes hold it with how much TTL
// left (presence in ttl doubles as the per-node dedup bit).
type forgedMsg struct {
	spoof  bool // geocast-spoof (radius-scoped) vs flood
	radius float64
	center geo.Point
	ttl    map[int]int
}
