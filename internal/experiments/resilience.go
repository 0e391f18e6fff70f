package experiments

import (
	"errors"
	"fmt"
	"strings"

	"citymesh/internal/adversary"
	"citymesh/internal/citygen"
	"citymesh/internal/core"
	"citymesh/internal/faults"
	"citymesh/internal/runner"
	"citymesh/internal/sim"
)

// ResilienceRow is one (city, failure mode, failure fraction) cell of the
// disaster-scenario experiment: how often plain conduit routing delivers
// under injected AP failures, how often the full escalation ladder
// delivers, and which rung ends up doing the work.
type ResilienceRow struct {
	City     string
	Mode     faults.Mode
	FailFrac float64
	// Pairs is the number of (pre-failure reachable) building pairs run.
	Pairs int
	// PlainRate is the delivery fraction of a single Send.
	PlainRate float64
	// ReliableRate is the delivery fraction of SendReliable.
	ReliableRate float64
	// RungWins counts, for delivered reliable sends, which ladder rung
	// succeeded (indexed by core.Rung: direct, retry, widen, multipath,
	// flood).
	RungWins [core.NumRungs]int
	// PlainBroadcastsP50 and ReliableBroadcastsP50 compare the median
	// transmission cost of the two strategies.
	PlainBroadcastsP50    float64
	ReliableBroadcastsP50 float64
	// LostToDeadAP is the total count of frames that died at failed APs
	// across the plain sends — the injection's direct footprint.
	LostToDeadAP int
}

// ResilienceConfig scales the experiment.
type ResilienceConfig struct {
	// Cities to evaluate; empty means all presets.
	Cities []string
	// Mode is the fault injector to sweep.
	Mode faults.Mode
	// Fracs are the failure fractions to sweep (default 0, 0.1, ..., 0.5).
	Fracs []float64
	// Pairs is the number of building pairs simulated per cell.
	Pairs int
	// Seed drives sampling, injection, and the ladder jitter.
	Seed int64
	// Scale shrinks preset city extents (0 < Scale <= 1) for fast runs.
	Scale float64
	// Sim overrides the per-send simulator settings (delay, jitter, loss,
	// event cap); nil uses sim.DefaultConfig(). Seed and injected failures
	// are set per task regardless.
	Sim *sim.Config
	// Parallelism is the worker count for the pair sweep: 0 or negative
	// uses GOMAXPROCS, 1 forces serial. Output is byte-identical across
	// parallelism levels for the same seed.
	Parallelism int
	// Adversary, when non-empty, additionally compromises a seeded
	// fraction of each city's APs with this misbehavior (see
	// adversary.Names) — liars and rubble coexist, and a failed liar is
	// simply down.
	Adversary string
	// AdvFrac is the compromised fraction (default 0.2 when Adversary is
	// set).
	AdvFrac float64
	// Defend arms honest receivers with adversary.DefaultDefense.
	Defend bool
}

// DefaultResilienceConfig sweeps uniform failure on every preset.
func DefaultResilienceConfig() ResilienceConfig {
	return ResilienceConfig{
		Mode:  faults.ModeUniform,
		Fracs: []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5},
		Pairs: 30,
		Seed:  1,
	}
}

// Resilience sweeps failure fractions across cities and reports delivery
// rates for plain sends versus the resilient ladder.
func Resilience(cfg ResilienceConfig) ([]ResilienceRow, error) {
	cities := cfg.Cities
	if len(cities) == 0 {
		cities = citygen.PresetNames()
	}
	if cfg.Mode == "" {
		cfg.Mode = faults.ModeUniform
	}
	known := false
	for _, m := range faults.Modes() {
		if cfg.Mode == faults.Mode(m) {
			known = true
			break
		}
	}
	if !known {
		return nil, fmt.Errorf("experiments: unknown fault mode %q (have %s)",
			cfg.Mode, strings.Join(faults.Modes(), ", "))
	}
	if len(cfg.Fracs) == 0 {
		cfg.Fracs = DefaultResilienceConfig().Fracs
	}
	if cfg.Pairs <= 0 {
		cfg.Pairs = 30
	}
	behavior, err := adversary.Parse(cfg.Adversary)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	if cfg.AdvFrac <= 0 {
		cfg.AdvFrac = 0.2
	}
	if cfg.Sim != nil {
		if err := cfg.Sim.Validate(); err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
	}
	var rows []ResilienceRow
	for _, name := range cities {
		n, err := loadCity(name, cfg.Scale, core.DefaultConfig())
		if err != nil {
			return nil, err
		}
		pairs, err := sampleReachablePairs(n, cfg.Seed, cfg.Pairs)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", name, err)
		}
		// The adversary realization is per city (it indexes the city's
		// mesh) and constant across the failure sweep, so the fraction
		// axis isolates crash faults with the liars held fixed.
		asg := adversary.Select(n.Mesh, behavior, cfg.AdvFrac, cfg.Seed+7777)
		for _, frac := range cfg.Fracs {
			row, err := resilienceCell(n, name, pairs, frac, cfg, asg)
			if errors.Is(err, faults.ErrInapplicable) {
				// A mode can be inapplicable to one city (e.g. flooding a
				// waterless preset): report and keep sweeping the rest.
				rows = append(rows, ResilienceRow{City: name, Mode: cfg.Mode, FailFrac: frac})
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", name, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func resilienceCell(n *core.Network, city string, pairs [][2]int, frac float64, cfg ResilienceConfig, asg adversary.Assignment) (ResilienceRow, error) {
	row := ResilienceRow{City: city, Mode: cfg.Mode, FailFrac: frac}
	inj, err := faults.Inject(n.Mesh, n.City, faults.Config{
		Mode: cfg.Mode,
		Frac: frac,
		Seed: cfg.Seed + int64(frac*1000),
	})
	if err != nil {
		return row, err
	}
	rcfg := core.DefaultReliableConfig()
	base := sim.DefaultConfig()
	if cfg.Sim != nil {
		base = *cfg.Sim
	}

	// One task per pair on the parallel runner. Each task's randomness
	// derives from (sweep seed, task index) — the same pair sees the same
	// loss/jitter realization at any parallelism — and results fold below
	// in task-index order, exactly as the serial loop did.
	type outcome struct {
		plainRan, plainOK bool
		relRan, relOK     bool
		plainCost         float64
		relCost           float64
		lostToDead        int
		rung              core.Rung
	}
	outs := runner.Map(cfg.Parallelism, len(pairs), func(i int) outcome {
		p := pairs[i]
		seed := runner.TaskSeed(cfg.Seed, i)
		simCfg := base
		simCfg.Seed = seed
		inj.ApplySet(&simCfg)
		asg.Apply(&simCfg)
		if cfg.Defend {
			simCfg.Defense = adversary.DefaultDefense(n.Cfg.TTL)
		}

		var o outcome
		if res, err := n.Send(p[0], p[1], nil, simCfg); err == nil {
			o.plainRan = true
			o.lostToDead = res.Sim.LostToDeadAP
			o.plainCost = float64(res.Sim.Broadcasts)
			o.plainOK = res.Sim.Delivered
		}
		rc := rcfg
		rc.Seed = seed
		if rr, err := n.SendReliable(p[0], p[1], nil, simCfg, rc); err == nil {
			o.relRan = true
			o.relCost = float64(rr.TotalBroadcasts)
			o.relOK = rr.Delivered
			o.rung = rr.Rung
		}
		return o
	})

	var plainDelivered, reliableDelivered int
	var plainCost, reliableCost []float64
	for _, o := range outs {
		row.Pairs++
		if o.plainRan {
			row.LostToDeadAP += o.lostToDead
			plainCost = append(plainCost, o.plainCost)
			if o.plainOK {
				plainDelivered++
			}
		}
		if o.relRan {
			reliableCost = append(reliableCost, o.relCost)
			if o.relOK {
				reliableDelivered++
				if int(o.rung) < core.NumRungs {
					row.RungWins[o.rung]++
				}
			}
		}
	}
	row.PlainRate = ratio(plainDelivered, row.Pairs)
	row.ReliableRate = ratio(reliableDelivered, row.Pairs)
	row.PlainBroadcastsP50 = p50(plainCost)
	row.ReliableBroadcastsP50 = p50(reliableCost)
	return row, nil
}

// rungNames labels RungWins columns in ladder order.
var rungNames = [core.NumRungs]string{"direct", "retry", "widen", "mpath", "flood"}

// ResilienceText renders the sweep as an aligned table.
func ResilienceText(rows []ResilienceRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Resilience: delivery rate vs failure fraction (plain Send vs SendReliable ladder)\n")
	fmt.Fprintf(&sb, "%-14s %-8s %6s %6s %7s %8s %9s %9s  %s\n",
		"city", "mode", "fail", "pairs", "plain", "ladder", "bcast p50", "ladder p50", "rung wins")
	for _, r := range rows {
		var wins []string
		for i, w := range r.RungWins {
			if w > 0 {
				wins = append(wins, fmt.Sprintf("%s:%d", rungNames[i], w))
			}
		}
		if r.Pairs == 0 {
			wins = []string{"(mode inapplicable to this city)"}
		}
		fmt.Fprintf(&sb, "%-14s %-8s %5.0f%% %6d %6.1f%% %7.1f%% %9.0f %10.0f  %s\n",
			r.City, r.Mode, 100*r.FailFrac, r.Pairs,
			100*r.PlainRate, 100*r.ReliableRate,
			r.PlainBroadcastsP50, r.ReliableBroadcastsP50,
			strings.Join(wins, " "))
	}
	return sb.String()
}

// ResilienceCSV renders the sweep as CSV.
func ResilienceCSV(rows []ResilienceRow) string {
	var sb strings.Builder
	sb.WriteString("city,mode,fail_frac,pairs,plain_rate,reliable_rate,plain_bcast_p50,reliable_bcast_p50")
	for _, n := range rungNames {
		sb.WriteString(",wins_" + n)
	}
	sb.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%s,%s,%.2f,%d,%.4f,%.4f,%.1f,%.1f",
			r.City, r.Mode, r.FailFrac, r.Pairs, r.PlainRate, r.ReliableRate,
			r.PlainBroadcastsP50, r.ReliableBroadcastsP50)
		for _, w := range r.RungWins {
			fmt.Fprintf(&sb, ",%d", w)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
