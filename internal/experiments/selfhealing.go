package experiments

import (
	"fmt"
	"strings"

	"citymesh/internal/core"
	"citymesh/internal/faults"
	"citymesh/internal/health"
	"citymesh/internal/runner"
	"citymesh/internal/sim"
)

// SelfHealingConfig scales the self-healing experiment (E: route-health
// memory + store-and-heal, PR 3).
type SelfHealingConfig struct {
	// City is the preset name (default "gridtown").
	City string
	// Scale shrinks the preset extent (0 < Scale <= 1) for fast runs.
	Scale float64
	// Mode is the fault injector (default disk — the spatially correlated
	// damage the health map is built for).
	Mode faults.Mode
	// Frac is the failure fraction (default 0.3).
	Frac float64
	// Pairs is the number of building pairs sent, in a fixed deterministic
	// order so the health map's learning curve is reproducible.
	Pairs int
	// Seed drives sampling, injection, and ladder jitter.
	Seed int64
	// Health tunes the route-health memory; zero fields use the defaults.
	// (The -heal-decay flag lands in Health.DecayTau.)
	Health health.Config
	// RecoverAt, when > 0, wraps the injection so every failure heals at
	// that sim instant, and runs the store-and-heal phase: pairs whose
	// ladder exhausted are re-driven through SendEventually, which parks
	// them and re-attempts across the recovery.
	RecoverAt float64
	// Parallelism is the worker count for the independent phases (plain
	// ladder, store-and-heal): 0 or negative uses GOMAXPROCS. The
	// shared-health-map phase is inherently sequential — its whole point is
	// that earlier sends teach later ones — and always runs serially.
	Parallelism int
}

// DefaultSelfHealingConfig is the evaluation setting: gridtown under a 30%
// disk outage that heals at t=60s.
func DefaultSelfHealingConfig() SelfHealingConfig {
	return SelfHealingConfig{
		City:      "gridtown",
		Mode:      faults.ModeDisk,
		Frac:      0.3,
		Pairs:     30,
		Seed:      1,
		RecoverAt: 60,
	}
}

// SelfHealingResult compares the plain escalation ladder against the
// ladder with route-health memory on the same pairs, same faults, same
// seeds — then reports the store-and-heal phase for the pairs neither
// could reach.
type SelfHealingResult struct {
	City  string
	Mode  faults.Mode
	Frac  float64
	Pairs int

	// LadderRate and LadderBroadcasts are delivery fraction and total
	// transmission cost of the health-less ladder across all pairs.
	LadderRate       float64
	LadderBroadcasts int
	// HealthRate and HealthBroadcasts are the same under a shared
	// route-health map that learns across the batch.
	HealthRate       float64
	HealthBroadcasts int
	// HealthDirectWins counts health-ladder deliveries that needed no
	// escalation (RungDirect) — the payoff of planning around known damage.
	HealthDirectWins int
	LadderDirectWins int
	// Suspects is the number of buildings the map holds under suspicion
	// after the batch.
	Suspects int

	// Store-and-heal phase (RecoverAt > 0): every pair whose health-ladder
	// run exhausted is re-driven through SendEventually against the
	// recovering fault schedule.
	RecoverAt float64
	// Undeliverable is how many pairs exhausted the health ladder and
	// entered the store-and-heal phase.
	Undeliverable int
	// Parked counts messages classified partitioned and parked.
	Parked int
	// Healed counts parked messages eventually delivered (and acked).
	Healed int
	// HealedFraction is Healed/Parked (1 when nothing parked).
	HealedFraction float64
	// TimeToHealP50 is the median sim time from first transmission to
	// delivery across healed messages.
	TimeToHealP50 float64
}

// SelfHealing runs the PR 3 evaluation: does per-sender route-health
// memory (decaying suspicion, penalty-weighted replanning) deliver at
// least as often as the plain ladder for strictly less broadcast cost, and
// does partition-aware store-and-heal carry the rest across a recovery?
// The run is fully deterministic under a fixed Seed.
func SelfHealing(cfg SelfHealingConfig) (SelfHealingResult, error) {
	d := DefaultSelfHealingConfig()
	if cfg.City == "" {
		cfg.City = d.City
	}
	if cfg.Mode == "" {
		cfg.Mode = d.Mode
	}
	if cfg.Frac <= 0 {
		cfg.Frac = d.Frac
	}
	if cfg.Pairs <= 0 {
		cfg.Pairs = d.Pairs
	}
	n, err := loadCity(cfg.City, cfg.Scale, core.DefaultConfig())
	if err != nil {
		return SelfHealingResult{}, err
	}
	pairs, err := sampleReachablePairs(n, cfg.Seed, cfg.Pairs)
	if err != nil {
		return SelfHealingResult{}, err
	}
	inj, err := faults.Inject(n.Mesh, n.City, faults.Config{
		Mode: cfg.Mode, Frac: cfg.Frac, Seed: cfg.Seed,
	})
	if err != nil {
		return SelfHealingResult{}, err
	}

	out := SelfHealingResult{
		City: cfg.City, Mode: cfg.Mode, Frac: cfg.Frac,
		Pairs: len(pairs), RecoverAt: cfg.RecoverAt,
	}
	rcfg := core.DefaultReliableConfig()
	rcfg.Seed = cfg.Seed

	simCfg := sim.DefaultConfig()
	simCfg.Seed = cfg.Seed
	inj.ApplySet(&simCfg)

	// Phase A: the health-less ladder — independent pairs, so they run as
	// parallel tasks, folded in index order.
	type ladderOutcome struct {
		ran, delivered, direct bool
		broadcasts             int
	}
	ladderOuts := runner.Map(cfg.Parallelism, len(pairs), func(i int) ladderOutcome {
		rc := rcfg
		rc.Health = nil
		rr, err := n.SendReliable(pairs[i][0], pairs[i][1], nil, simCfg, rc)
		if err != nil {
			return ladderOutcome{}
		}
		return ladderOutcome{
			ran: true, delivered: rr.Delivered,
			direct: rr.Delivered && rr.Rung == core.RungDirect, broadcasts: rr.TotalBroadcasts,
		}
	})
	ladderDelivered := 0
	for _, o := range ladderOuts {
		if !o.ran {
			continue
		}
		out.LadderBroadcasts += o.broadcasts
		if o.delivered {
			ladderDelivered++
			if o.direct {
				out.LadderDirectWins++
			}
		}
	}

	// Phase B: the same pairs, same order, under one shared route-health
	// map — the accumulated memory of a relay that serves the whole batch.
	// Early failures teach it where the damage is; later sends route
	// around it and skip the escalation cost. This phase is deliberately
	// serial: each send depends on the map state the previous sends left
	// behind, so there are no independent tasks to hand the runner.
	hm := health.New(cfg.Health)
	healthDelivered := 0
	var exhausted [][2]int
	for _, p := range pairs {
		rc := rcfg
		rc.Health = hm
		rr, err := n.SendReliable(p[0], p[1], nil, simCfg, rc)
		if err != nil {
			continue
		}
		out.HealthBroadcasts += rr.TotalBroadcasts
		if rr.Delivered {
			healthDelivered++
			if rr.Rung == core.RungDirect {
				out.HealthDirectWins++
			}
		} else {
			exhausted = append(exhausted, p)
		}
	}
	out.LadderRate = ratio(ladderDelivered, out.Pairs)
	out.HealthRate = ratio(healthDelivered, out.Pairs)
	out.Suspects = hm.SuspectCount()

	// Phase C: store-and-heal. The pairs nothing could reach are parked
	// and re-attempted against the recovering schedule; the metric is how
	// many heal and how long healing takes.
	out.Undeliverable = len(exhausted)
	if cfg.RecoverAt > 0 && len(exhausted) > 0 {
		healing := inj.WithRecovery(cfg.RecoverAt)
		type healOutcome struct {
			ran, parked, healed bool
			timeToHeal          float64
		}
		healOuts := runner.Map(cfg.Parallelism, len(exhausted), func(i int) healOutcome {
			sc := sim.DefaultConfig()
			sc.Seed = cfg.Seed
			healing.ApplySet(&sc)
			res, err := n.SendEventually(exhausted[i][0], exhausted[i][1], nil, sc, rcfg, core.DefaultEventualConfig())
			if err != nil {
				return healOutcome{}
			}
			return healOutcome{
				ran: true, parked: res.Parked,
				healed: res.Parked && res.HealedFromPark, timeToHeal: res.TimeToHeal,
			}
		})
		var heals []float64
		for _, o := range healOuts {
			if o.ran && o.parked {
				out.Parked++
				if o.healed {
					out.Healed++
					heals = append(heals, o.timeToHeal)
				}
			}
		}
		out.TimeToHealP50 = p50(heals)
	}
	out.HealedFraction = 1
	if out.Parked > 0 {
		out.HealedFraction = ratio(out.Healed, out.Parked)
	}
	return out, nil
}

// SelfHealingText renders the comparison as a small report.
func SelfHealingText(r SelfHealingResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Self-healing: %s under %s fail=%.0f%% (%d pairs)\n",
		r.City, r.Mode, 100*r.Frac, r.Pairs)
	fmt.Fprintf(&sb, "%-16s %8s %12s %12s\n", "strategy", "deliv", "total bcast", "direct wins")
	fmt.Fprintf(&sb, "%-16s %7.1f%% %12d %12d\n", "ladder", 100*r.LadderRate, r.LadderBroadcasts, r.LadderDirectWins)
	fmt.Fprintf(&sb, "%-16s %7.1f%% %12d %12d\n", "ladder+health", 100*r.HealthRate, r.HealthBroadcasts, r.HealthDirectWins)
	fmt.Fprintf(&sb, "health map: %d suspect buildings after batch\n", r.Suspects)
	if r.RecoverAt > 0 {
		fmt.Fprintf(&sb, "store-and-heal: %d undeliverable, %d parked, %d healed (%.0f%%) by recovery at t=%.0fs",
			r.Undeliverable, r.Parked, r.Healed, 100*r.HealedFraction, r.RecoverAt)
		if r.Healed > 0 {
			fmt.Fprintf(&sb, ", time-to-heal p50 %.1fs", r.TimeToHealP50)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// SelfHealingCSV renders the result as a one-row CSV.
func SelfHealingCSV(r SelfHealingResult) string {
	var sb strings.Builder
	sb.WriteString("city,mode,fail_frac,pairs,ladder_rate,ladder_bcast,health_rate,health_bcast," +
		"ladder_direct_wins,health_direct_wins,suspects,recover_at,undeliverable,parked,healed,healed_frac,time_to_heal_p50\n")
	fmt.Fprintf(&sb, "%s,%s,%.2f,%d,%.4f,%d,%.4f,%d,%d,%d,%d,%.1f,%d,%d,%d,%.4f,%.2f\n",
		r.City, r.Mode, r.Frac, r.Pairs, r.LadderRate, r.LadderBroadcasts,
		r.HealthRate, r.HealthBroadcasts, r.LadderDirectWins, r.HealthDirectWins,
		r.Suspects, r.RecoverAt, r.Undeliverable, r.Parked, r.Healed, r.HealedFraction, r.TimeToHealP50)
	return sb.String()
}
