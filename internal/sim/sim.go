// Package sim is the discrete-event network simulator behind the paper's
// preliminary evaluation (§4). It propagates a single CityMesh packet
// through the realized AP mesh: every transmission is an event, receptions
// are subject to loss and AP failure injection, each AP suppresses
// duplicates by message ID, and a pluggable forwarding policy decides
// whether (and to whom) a receiving AP forwards.
//
// The engine is deterministic given a seed, and can record a full
// transcript (who transmitted, who received without forwarding) for
// rendering the paper's Figure 7.
package sim

import (
	"math/rand"

	"citymesh/internal/fwd"
	"citymesh/internal/mesh"
	"citymesh/internal/osm"
	"citymesh/internal/packet"
)

// Decision is a policy's forwarding choice for a freshly received packet.
type Decision struct {
	// Rebroadcast requests a broadcast to every AP in range.
	Rebroadcast bool
	// NextHops requests unicast transmissions to specific neighbor APs
	// (used by the unicast baselines such as greedy geographic routing).
	NextHops []int32
}

// Context hands a policy everything it may legitimately consult. CityMesh
// itself uses only the city map and the packet header; baselines may use
// neighbor positions (geographic routing assumes position beacons).
type Context struct {
	City *osm.City
	Mesh *mesh.Mesh
	RNG  *rand.Rand
	// Dst is the destination building index of the current packet.
	Dst int
	// TTL is the header TTL as the receiving AP would read it off the
	// wire for the current OnReceive call. The engine tracks remaining TTL
	// per AP instead of rewriting the shared packet, so the header's own
	// TTL field stays at the injected value; kernel-backed policies
	// consult this instead. 0 means "not set" (a direct test call) — fall
	// back to the packet header.
	TTL int
}

// Policy decides forwarding at each AP. OnReceive runs exactly once per
// (AP, message): the engine suppresses duplicates before consulting it.
type Policy interface {
	Name() string
	// OnReceive is called when AP ap first receives pkt from AP from
	// (from == -1 for the initial injection at the source).
	OnReceive(ctx *Context, ap int, pkt *packet.Packet, from int) Decision
}

// DecisionCounter is implemented by policies backed by the shared
// forwarding kernel (internal/fwd). Run snapshots the counts before and
// after the simulation and records the delta in Result.Decisions, so a
// transcript explains not just who forwarded but why. The delta is exact
// when the policy instance is not shared across concurrent runs.
type DecisionCounter interface {
	DecisionCounts() fwd.Counts
}

// FailureSchedule is a time-varying AP failure model (see internal/faults):
// the engine consults it at every transmission and reception instant, so an
// AP can crash mid-run or recover (churn). Implementations must be
// deterministic and safe for concurrent reads.
type FailureSchedule interface {
	// Down reports whether AP ap is failed at simulation time t.
	Down(ap int, t float64) bool
}

// OffsetSchedule shifts a FailureSchedule's time origin: Down(ap, t)
// consults the base schedule at t + Offset. Each Engine.Run starts its own
// clock at zero, so a sender re-attempting a delivery at a later point of
// a time-varying outage (core.SendEventually's healing scheduler) wraps
// the schedule with the elapsed sim time — the run then sees the outage
// as it stands *now*, including any churn recovery since the first try.
type OffsetSchedule struct {
	Base   FailureSchedule
	Offset float64
}

// Down implements FailureSchedule.
func (o OffsetSchedule) Down(ap int, t float64) bool {
	return o.Base != nil && o.Base.Down(ap, t+o.Offset)
}

// Config parameterizes a simulation run.
type Config struct {
	// TxDelay is the per-transmission latency in seconds.
	TxDelay float64
	// JitterMax bounds the uniform random delay added before each
	// forwarding transmission, de-synchronizing rebroadcast storms.
	JitterMax float64
	// LossProb is the independent per-reception loss probability.
	LossProb float64
	// FailedSet marks crashed APs: they neither receive nor forward.
	FailedSet mesh.NodeSet
	// Schedule is an optional time-varying failure model consulted in
	// addition to FailedSet; an AP down at time t neither receives nor
	// rebroadcasts at t.
	Schedule FailureSchedule
	// BlackholeSet marks compromised APs (§1's security threat): they
	// receive and silently consume frames — never forwarding and never
	// counting as delivery — which is strictly harder to route around
	// than a crashed AP whose silence at least leaves the channel clear.
	BlackholeSet mesh.NodeSet
	// Radio selects the PHY model. nil uses the paper's unit-disk cutoff
	// at the mesh's configured transmission range.
	Radio RadioModel
	// CollisionWindow approximates interference: when two frames arrive
	// at the same AP within this many seconds, the later one is lost.
	// Zero disables collisions (the paper's idealized setting).
	CollisionWindow float64
	// MaxEvents caps the event count as a runaway guard.
	MaxEvents int
	// Seed drives all randomness in the run.
	Seed int64
	// RecordTranscript enables per-AP reception/forwarding records.
	RecordTranscript bool
	// Mobiles adds moving carrier nodes (data mules): each overhears
	// broadcast transmissions wherever its path has taken it, stores the
	// packet, and rebroadcasts periodically (see Mobile). Carrier node
	// indices follow the AP indices.
	Mobiles []Mobile
	// Probe, when set, receives the engine's ground-truth event stream
	// (accepts, transmissions, deliveries) for invariant checking; see
	// InvariantChecker. Must not retain the events beyond the call.
	Probe func(ProbeEvent)
	// Adversary assigns Byzantine misbehaviors to APs (see APBehavior);
	// nil means every AP is honest. Composes with FailedSet/Schedule: a
	// down AP stays silent whatever its behavior.
	Adversary *Adversary
	// Defense is the honest receivers' sanity stack; the zero value is the
	// undefended baseline.
	Defense Defense
}

// DefaultConfig returns the evaluation defaults: 1 ms transmissions with up
// to 5 ms jitter, no loss, no failures.
func DefaultConfig() Config {
	return Config{TxDelay: 0.001, JitterMax: 0.005, MaxEvents: 5_000_000, Seed: 1}
}

// APRecord is an AP's role in one simulation, for transcripts.
type APRecord struct {
	Received    bool
	Forwarded   bool
	ReceiveTime float64
	Hops        int
}

// Result summarizes one simulation run.
type Result struct {
	// Delivered reports whether any AP in the destination building
	// received the packet.
	Delivered bool
	// DeliveryTime is the simulation time of first delivery.
	DeliveryTime float64
	// DeliveryHops is the transmission count along the first delivery path.
	DeliveryHops int
	// Broadcasts is the total number of transmissions (the numerator of
	// the paper's transmission-overhead metric).
	Broadcasts int
	// Receptions counts successful packet receptions (including
	// duplicates).
	Receptions int
	// APsReached counts distinct APs that received the packet.
	APsReached int
	// MobilesReached counts distinct mobile carriers that picked the
	// packet up (APsReached excludes them).
	MobilesReached int
	// Transcript holds per-AP records when Config.RecordTranscript is set.
	Transcript []APRecord
	// SourceAP is the AP that injected the packet.
	SourceAP int
	// Decisions is the forwarding kernel's per-reason decision tally for
	// this run, populated when the policy implements DecisionCounter
	// (CityMesh does); zero for kernel-less baselines.
	Decisions fwd.Counts

	// Per-attempt loss diagnostics: why frames that were transmitted never
	// became receptions. Together they explain a failed delivery — a run
	// dominated by LostToDeadAP needs rerouting, one dominated by
	// LostToCollision needs pacing, one dominated by LostToRange reflects
	// marginal links or a mispredicted building edge.

	// LostToDeadAP counts frames addressed to an AP that was failed (or
	// scheduled down) at arrival time.
	LostToDeadAP int
	// LostToCollision counts frames lost to the collision window.
	LostToCollision int
	// LostToLoss counts frames dropped by the independent LossProb coin.
	LostToLoss int
	// LostToRange counts frames the radio model rejected (out of range or
	// faded).
	LostToRange int

	// Adversary diagnostics: what the Byzantine APs did and what the
	// defense stack caught. All zero when Config.Adversary is nil and
	// Config.Defense is zero.

	// CompromisedDeliveries counts receptions of the packet at Byzantine
	// APs of the destination building — the message reached the building
	// but only a liar holds it, so Delivered stays false for them.
	CompromisedDeliveries int
	// TaintedDeliveries counts destination-building receptions of a
	// corrupted copy by honest APs: without TamperCheck the corruption is
	// accepted (and poisons dedup against the genuine copy), but a
	// corrupted payload is not a delivery.
	TaintedDeliveries int
	// TaintedAccepts counts nodes whose first (dedup-claiming) reception
	// was a corrupted copy.
	TaintedAccepts int
	// GrayholeDrops counts policy-approved forwards suppressed by grayhole
	// APs.
	GrayholeDrops int
	// ReplayedFrames counts replayer retransmissions (also in Broadcasts).
	ReplayedFrames int
	// ForgedBroadcasts counts transmissions of forged messages, by their
	// injectors and by honest nodes relaying them. Not in Broadcasts: the
	// legacy metric keeps meaning "transmissions of the real packet".
	ForgedBroadcasts int
	// ForgedAccepts counts first receptions of forged messages.
	ForgedAccepts int
	// RejectedTampered counts receptions dropped by Defense.TamperCheck.
	RejectedTampered int
	// RejectedTTL counts receptions dropped by Defense.MaxTTL.
	RejectedTTL int
	// RejectedRateLimited counts receptions dropped by the per-neighbor
	// rate gate.
	RejectedRateLimited int
	// RejectedGeocast counts forged-geocast receptions dropped by
	// Defense.MaxGeocastRadius.
	RejectedGeocast int
}

// Overhead returns Broadcasts divided by the ideal minimum transmission
// count (from mesh.MinTransmissions); the paper's overhead metric. It
// returns 0 when ideal is 0.
func (r Result) Overhead(ideal int) float64 {
	if ideal <= 0 {
		return 0
	}
	return float64(r.Broadcasts) / float64(ideal)
}

type evKind uint8

const (
	evTransmit evKind = iota // an AP broadcasts to all neighbors
	evUnicast                // an AP transmits to one neighbor
	evReceive                // the nodes that heard one transmission receive it
)

// event is one entry of the engine's queue. Node ids are int32 (memory runs
// out long before a mesh has 2^31 APs), which keeps an event at 40 bytes:
// the heap moves whole events on every sift.
type event struct {
	t    float64
	seq  int64 // FIFO tiebreak for determinism
	ap   int32 // acting node: the transmitter, also of an evReceive batch
	peer int32 // evUnicast: target AP
	// msg selects the message: 0 is the real packet, k > 0 is forged
	// message k-1 (spoofer/flooder injections propagate as their own
	// waves).
	msg int32
	// off and n are an evReceive batch's receivers, arena[off:off+n], in
	// the order their single events would have been pushed. The batch owns
	// the sequence numbers seq .. seq+n-1.
	off, n int32
	kind   evKind
	// replay marks a replayer's stale retransmission of the real packet.
	replay bool
}
