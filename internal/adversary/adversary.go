// Package adversary realizes Byzantine misbehavior assignments against a
// mesh, the way internal/faults realizes crash-fault injections: a seeded
// fraction (or explicit set) of APs gets one of the simulator's misbehavior
// policies, and the resulting Assignment applies onto a sim.Config where it
// composes with any FailedSet and any FailureSchedule — floods and
// liars coexist, and a flooded liar is simply down.
//
// The package also owns the recommended receiver defense stack
// (DefaultDefense) and the behavior-name parsing shared by experiment
// tables and CLI flags.
package adversary

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"citymesh/internal/mesh"
	"citymesh/internal/sim"
)

// Names lists the assignable misbehaviors in a stable order, as accepted by
// Parse — flag help and the byzantine experiment's sweep axis.
func Names() []string {
	return []string{
		"blackhole", "grayhole", "replayer", "corruptor",
		"ttlreset", "spoofer", "flooder",
	}
}

// Parse maps a behavior name (as printed by sim.APBehavior.String) to its
// value. "honest" and "" parse to BehaviorHonest so a zero flag disables
// the adversary cleanly.
func Parse(name string) (sim.APBehavior, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "honest", "none":
		return sim.BehaviorHonest, nil
	case "blackhole":
		return sim.BehaviorBlackhole, nil
	case "grayhole":
		return sim.BehaviorGrayhole, nil
	case "replayer":
		return sim.BehaviorReplayer, nil
	case "corruptor":
		return sim.BehaviorCorruptor, nil
	case "ttlreset":
		return sim.BehaviorTTLReset, nil
	case "spoofer":
		return sim.BehaviorSpoofer, nil
	case "flooder":
		return sim.BehaviorFlooder, nil
	default:
		return sim.BehaviorHonest, fmt.Errorf("adversary: unknown behavior %q (have %s)",
			name, strings.Join(Names(), ", "))
	}
}

// Assignment is a realized adversary: the behavior map ready to apply onto
// a sim.Config, plus a human-readable description for tables and logs.
type Assignment struct {
	Adversary *sim.Adversary
	Desc      string
}

// Apply installs the assignment onto cfg, merging with any adversary
// already present (the incoming behaviors win on overlap). Knobs on the
// incoming Adversary override zero knobs already set, never the reverse, so
// Combine and repeated Apply agree.
func (a Assignment) Apply(cfg *sim.Config) {
	if a.Adversary == nil || len(a.Adversary.Behaviors) == 0 {
		return
	}
	if cfg.Adversary == nil {
		adv := *a.Adversary
		adv.Behaviors = make(map[int]sim.APBehavior, len(a.Adversary.Behaviors))
		for ap, b := range a.Adversary.Behaviors {
			adv.Behaviors[ap] = b
		}
		cfg.Adversary = &adv
		return
	}
	merged := cfg.Adversary
	if merged.Behaviors == nil {
		merged.Behaviors = make(map[int]sim.APBehavior, len(a.Adversary.Behaviors))
	}
	for ap, b := range a.Adversary.Behaviors {
		merged.Behaviors[ap] = b
	}
	mergeKnobs(merged, a.Adversary)
}

// mergeKnobs copies src's non-zero knobs over dst's zero ones.
func mergeKnobs(dst, src *sim.Adversary) {
	if dst.DropProb == 0 {
		dst.DropProb = src.DropProb
	}
	if dst.ReplayInterval == 0 {
		dst.ReplayInterval = src.ReplayInterval
	}
	if dst.ReplayHorizon == 0 {
		dst.ReplayHorizon = src.ReplayHorizon
	}
	if dst.ResetTTL == 0 {
		dst.ResetTTL = src.ResetTTL
	}
	if dst.InjectRate == 0 {
		dst.InjectRate = src.InjectRate
	}
	if dst.InjectHorizon == 0 {
		dst.InjectHorizon = src.InjectHorizon
	}
	if dst.ForgedTTL == 0 {
		dst.ForgedTTL = src.ForgedTTL
	}
}

// NumCompromised counts the assignment's Byzantine APs.
func (a Assignment) NumCompromised() int { return a.Adversary.NumByzantine() }

// Select compromises a seeded fraction of the mesh's APs with behavior b.
// The same (mesh, b, frac, seed) always selects the same APs; the selection
// stream is independent of any faults injection run with another seed.
func Select(m *mesh.Mesh, b sim.APBehavior, frac float64, seed int64) Assignment {
	n := m.NumAPs()
	k := targetCount(n, frac)
	if b == sim.BehaviorHonest || k == 0 {
		return Assignment{Adversary: &sim.Adversary{}, Desc: "no adversary"}
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	behaviors := make(map[int]sim.APBehavior, k)
	for _, ap := range perm[:k] {
		behaviors[ap] = b
	}
	return Assignment{
		Adversary: &sim.Adversary{Behaviors: behaviors},
		Desc:      fmt.Sprintf("%s: %d/%d APs (p=%.2f)", b, k, n, frac),
	}
}

// DefaultDefense is the recommended honest-receiver stack for a deployment
// whose scoped floods are bounded by netTTL: reject TTLs no honest frame
// can carry, re-validate frame integrity, throttle per-neighbor frame
// storms, and refuse metro-scale geocast claims.
func DefaultDefense(netTTL uint8) sim.Defense {
	return sim.Defense{
		MaxTTL:           netTTL,
		TamperCheck:      true,
		NeighborRate:     8,
		NeighborBurst:    16,
		MaxGeocastRadius: 2000,
	}
}

// targetCount converts a fraction into an AP count, clamped to [0, n]
// (mirrors internal/faults).
func targetCount(n int, frac float64) int {
	if frac <= 0 {
		return 0
	}
	if frac >= 1 {
		return n
	}
	return int(math.Round(frac * float64(n)))
}
