// Mobile carrier nodes and run-time invariant probing.
//
// A Mobile is a moving participant — a bus still running its route, an
// emergency vehicle, a pedestrian with a phone — that acts as a carrier
// (data mule): it overhears broadcast transmissions, stores the packet,
// and rebroadcasts it periodically from wherever its track has taken it.
// Carriers bypass the forwarding Policy entirely: they are not APs, know
// nothing about the city map, and implement pure store-carry-forward. That
// keeps every Policy (and the fwd kernel parity harness) untouched while
// letting a moving radio stitch a partitioned mesh back together.
//
// The Probe hook exposes the engine's per-event ground truth so invariant
// checkers (and the fuzz harness) can verify structural properties — loop
// freedom, strict TTL decrease, no traffic through failed APs — under
// arbitrary churn and movement without re-implementing engine logic.
package sim

import (
	"fmt"

	"citymesh/internal/geo"
	"citymesh/internal/mesh"
)

// MobilePath is a deterministic motion plan: position as a pure function
// of simulation time. internal/mobility's Track implements it; sim
// deliberately depends only on this interface so the engine stays free of
// track-construction concerns.
type MobilePath interface {
	PosAt(t float64) geo.Point
}

// OffsetPath shifts a MobilePath's time origin, the mobility analogue of
// OffsetSchedule: each Engine.Run starts its clock at zero, so a re-attempt
// at global time T wraps every path with Offset T — the run then sees the
// bus where it actually is *now*, not back at its depot.
type OffsetPath struct {
	Base   MobilePath
	Offset float64
}

// PosAt implements MobilePath.
func (o OffsetPath) PosAt(t float64) geo.Point { return o.Base.PosAt(t + o.Offset) }

// DefaultMobileInterval is the carrier rebroadcast period in seconds when
// Mobile.IntervalS is zero: once a second, the beaconing cadence of a
// store-carry-forward radio.
const DefaultMobileInterval = 1.0

// DefaultMobileHorizon bounds carrier rebroadcasting when Mobile.HorizonS
// is zero. It matches the default churn horizon: past it the run's
// interesting dynamics are over.
const DefaultMobileHorizon = 60.0

// Mobile is a moving carrier node. Mobiles occupy node indices
// NumAPs()..NumAPs()+len(Mobiles)-1 in a run; they never fail (a vehicle
// drives out of a flood zone rather than drowning with it), never deliver
// (they are not in any building), and always rebroadcast while they hold
// a live-TTL packet.
type Mobile struct {
	// Path gives the carrier's position at every instant. Required.
	Path MobilePath
	// IntervalS is the rebroadcast period in seconds once the carrier
	// holds the packet (default DefaultMobileInterval).
	IntervalS float64
	// HorizonS stops the carrier's rebroadcasting after this simulation
	// time (default DefaultMobileHorizon).
	HorizonS float64
}

func (mb Mobile) interval() float64 {
	if mb.IntervalS <= 0 {
		return DefaultMobileInterval
	}
	return mb.IntervalS
}

func (mb Mobile) horizon() float64 {
	if mb.HorizonS <= 0 {
		return DefaultMobileHorizon
	}
	return mb.HorizonS
}

// ProbeKind labels a ProbeEvent.
type ProbeKind uint8

const (
	// ProbeAccept fires when a node accepts (first, non-duplicate
	// reception of) the packet.
	ProbeAccept ProbeKind = iota
	// ProbeTransmit fires when a node actually transmits (broadcast or
	// unicast), after the engine's own down-check.
	ProbeTransmit
	// ProbeDeliver fires when an accepted packet reaches an AP of the
	// destination building.
	ProbeDeliver
)

// ProbeEvent is the engine's ground truth for one observable action.
type ProbeEvent struct {
	Kind ProbeKind
	// Node is the acting node: the accepter/transmitter/deliverer. AP
	// indices are < NumAPs; carrier indices follow.
	Node int
	// From is the transmitting node for ProbeAccept (-1 for the source
	// injection); -1 otherwise.
	From int
	// T is the simulation time of the action.
	T float64
	// TTL is the node's remaining TTL after an accept, or the
	// transmitter's remaining TTL for a transmit; 0 for deliver events.
	TTL int
}

// InvariantChecker verifies the forwarding kernel's structural properties
// from a run's probe stream, independent of any policy:
//
//  1. Loop freedom: no node accepts the packet twice, and nothing
//     transmits a packet it never accepted.
//  2. TTL strictly decreases: every accept carries strictly less TTL than
//     the transmitter held (exactly one less, the wire decrement).
//  3. Dead silence: a failed AP never accepts, transmits, or takes
//     delivery.
//
// Wire one up with:
//
//	ic := sim.NewInvariantChecker(m.NumAPs(), cfg)
//	cfg.Probe = ic.Probe
//	res, err := sim.NewEngine(m, city, pol).Run(pkt, cfg)
//	violations := ic.Violations()
//
// When the run declares an Adversary, the checker runs adversary-aware:
// violations in which any involved node is declared Byzantine are expected
// misbehavior, tallied in ByzantineViolations() and kept out of the failing
// report — a TTL-resetter *should* trip the strict-decrement invariant.
// Violations among honest nodes still fail, which is the property the
// byzantine experiment gates on.
//
// The checker is not safe for concurrent use; give each run its own.
type InvariantChecker struct {
	numAPs    int
	failedSet mesh.NodeSet
	schedule  FailureSchedule
	adversary *Adversary

	acceptTTL  map[int]int
	transmits  map[int]int
	violations []string
	total      int
	byzantine  int
}

// maxViolations caps the recorded violation list; a broken engine would
// otherwise drown the report in millions of identical lines. Total() keeps
// counting past the cap so adversary runs report true magnitudes.
const maxViolations = 32

// NewInvariantChecker builds a checker for runs using cfg's failure model
// against a mesh with numAPs access points.
func NewInvariantChecker(numAPs int, cfg Config) *InvariantChecker {
	return &InvariantChecker{
		numAPs:    numAPs,
		failedSet: cfg.FailedSet,
		schedule:  cfg.Schedule,
		adversary: cfg.Adversary,
		acceptTTL: make(map[int]int),
		transmits: make(map[int]int),
	}
}

func (ic *InvariantChecker) down(node int, t float64) bool {
	if node >= ic.numAPs {
		return false // carriers never fail
	}
	if ic.failedSet.Contains(node) {
		return true
	}
	return ic.schedule != nil && ic.schedule.Down(node, t)
}

// violate records one breach. When any involved node is declared Byzantine
// the breach is expected misbehavior and only bumps the Byzantine tally;
// honest breaches count toward Total and fill the capped report list.
func (ic *InvariantChecker) violate(involved []int, format string, args ...any) {
	for _, n := range involved {
		if n >= 0 && ic.adversary.IsByzantine(n) {
			ic.byzantine++
			return
		}
	}
	ic.total++
	if len(ic.violations) < maxViolations {
		ic.violations = append(ic.violations, fmt.Sprintf(format, args...))
	}
}

// Probe consumes one engine event; install it as Config.Probe.
func (ic *InvariantChecker) Probe(e ProbeEvent) {
	switch e.Kind {
	case ProbeAccept:
		if _, dup := ic.acceptTTL[e.Node]; dup {
			ic.violate([]int{e.Node, e.From}, "node %d accepted twice (t=%.6f): forwarding loop", e.Node, e.T)
			return
		}
		if ic.down(e.Node, e.T) {
			ic.violate([]int{e.Node}, "failed AP %d accepted at t=%.6f", e.Node, e.T)
		}
		if e.From >= 0 {
			fromTTL, ok := ic.acceptTTL[e.From]
			if !ok {
				ic.violate([]int{e.Node, e.From}, "node %d accepted from %d, which never accepted", e.Node, e.From)
			} else if e.TTL != fromTTL-1 {
				ic.violate([]int{e.Node, e.From},
					"node %d accepted TTL %d from node %d holding TTL %d: not a strict decrement",
					e.Node, e.TTL, e.From, fromTTL)
			}
		}
		ic.acceptTTL[e.Node] = e.TTL
	case ProbeTransmit:
		ic.transmits[e.Node]++
		if _, ok := ic.acceptTTL[e.Node]; !ok {
			ic.violate([]int{e.Node}, "node %d transmitted without ever accepting", e.Node)
		}
		if ic.down(e.Node, e.T) {
			ic.violate([]int{e.Node}, "failed AP %d transmitted at t=%.6f", e.Node, e.T)
		}
		if e.TTL <= 0 {
			ic.violate([]int{e.Node}, "node %d transmitted with TTL %d exhausted", e.Node, e.TTL)
		}
	case ProbeDeliver:
		if _, ok := ic.acceptTTL[e.Node]; !ok {
			ic.violate([]int{e.Node}, "delivery at AP %d without an accept", e.Node)
		}
		if ic.down(e.Node, e.T) {
			ic.violate([]int{e.Node}, "delivery to failed AP %d at t=%.6f", e.Node, e.T)
		}
	}
}

// Violations returns the recorded honest-node invariant breaches (nil when
// clean), capped at maxViolations lines; when Total exceeds the cap, a
// final summary line reports how many went unrecorded.
func (ic *InvariantChecker) Violations() []string {
	if ic.total > maxViolations {
		return append(ic.violations[:maxViolations:maxViolations],
			fmt.Sprintf("... and %d more honest violations (total %d)", ic.total-maxViolations, ic.total))
	}
	return ic.violations
}

// Total is the full count of honest-node violations, including those past
// the recorded-report cap.
func (ic *InvariantChecker) Total() int { return ic.total }

// ByzantineViolations counts breaches attributed to declared-Byzantine
// nodes — expected misbehavior under an Adversary, excluded from
// Violations and Total.
func (ic *InvariantChecker) ByzantineViolations() int { return ic.byzantine }
