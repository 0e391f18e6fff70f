package experiments

import (
	"fmt"
	"strings"

	"citymesh/internal/citygen"
	"citymesh/internal/core"
	"citymesh/internal/faults"
	"citymesh/internal/runner"
	"citymesh/internal/sim"
	"citymesh/internal/trafficgen"
)

// OverloadRow is one (flash-crowd load, failure fraction) cell of the
// user-traffic overload experiment: the session layer's degradation curve
// under a post-disaster flash crowd on a damaged mesh.
type OverloadRow struct {
	City     string
	Mode     faults.Mode
	FailFrac float64
	// Load is the flash-crowd rate multiplier.
	Load float64
	trafficgen.Report
}

// OverloadConfig scales the experiment.
type OverloadConfig struct {
	// City is the preset to run (default "gridtown").
	City string
	// Scale shrinks the preset (default 0.5).
	Scale float64
	// Mode is the fault injector (default disk — a localized disaster).
	Mode faults.Mode
	// FailFracs and Loads span the sweep grid (defaults {0, 0.3} ×
	// {1, 2, 4}).
	FailFracs []float64
	Loads     []float64
	// Users and Ticks size each cell's traffic run.
	Users int
	Ticks int
	// Seed drives injection, traffic, and transport randomness.
	Seed int64
	// Parallelism is the runner worker count over cells; output is
	// byte-identical at any value.
	Parallelism int
	// Traffic overrides generator defaults (Users/Ticks/Seed are set per
	// cell regardless).
	Traffic trafficgen.Config
}

// DefaultOverloadConfig is sized so the full sweep runs in CI smoke time.
func DefaultOverloadConfig() OverloadConfig {
	return OverloadConfig{
		City:      "gridtown",
		Scale:     0.35,
		Mode:      faults.ModeDisk,
		FailFracs: []float64{0, 0.3},
		Loads:     []float64{1, 4},
		Users:     90,
		Ticks:     48,
		Seed:      1,
	}
}

// Overload sweeps flash-crowd load against failure fraction and reports
// the session layer's graceful-degradation curve. Each cell is one task on
// the parallel runner with a SplitMix64-derived seed; cells fold in index
// order, so the rendered output is byte-identical at any parallelism. The
// sweep hard-fails if any cell's per-cause accounting does not sum to its
// offered load — the attribution invariant is part of the experiment's
// contract, not just a statistic.
func Overload(cfg OverloadConfig) ([]OverloadRow, error) {
	def := DefaultOverloadConfig()
	if cfg.City == "" {
		cfg.City = def.City
	}
	if cfg.Scale <= 0 {
		cfg.Scale = def.Scale
	}
	if cfg.Mode == "" {
		cfg.Mode = def.Mode
	}
	if len(cfg.FailFracs) == 0 {
		cfg.FailFracs = def.FailFracs
	}
	if len(cfg.Loads) == 0 {
		cfg.Loads = def.Loads
	}
	if cfg.Users <= 0 {
		cfg.Users = def.Users
	}
	if cfg.Ticks <= 0 {
		cfg.Ticks = def.Ticks
	}
	if cfg.Seed == 0 {
		cfg.Seed = def.Seed
	}

	spec, ok := citygen.Preset(cfg.City)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown city %q", cfg.City)
	}
	if cfg.Scale > 0 && cfg.Scale < 1 {
		spec = scaleSpec(spec, cfg.Scale)
	}
	n, err := core.FromSpec(spec, core.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", cfg.City, err)
	}

	type cell struct {
		frac, load float64
	}
	var cells []cell
	for _, frac := range cfg.FailFracs {
		for _, load := range cfg.Loads {
			cells = append(cells, cell{frac: frac, load: load})
		}
	}

	rows, err := runner.MapErr(cfg.Parallelism, len(cells), func(i int) (OverloadRow, error) {
		c := cells[i]
		row := OverloadRow{City: cfg.City, Mode: cfg.Mode, FailFrac: c.frac, Load: c.load}
		simCfg := sim.DefaultConfig()
		if c.frac > 0 {
			// The same fraction gets the same disaster across load levels
			// (seeded by frac, not by cell), isolating the load axis.
			inj, err := faults.Inject(n.Mesh, n.City, faults.Config{
				Mode: cfg.Mode, Frac: c.frac, Seed: cfg.Seed + int64(c.frac*1000),
			})
			if err != nil {
				return row, fmt.Errorf("experiments: overload inject %.2f: %w", c.frac, err)
			}
			inj.ApplySet(&simCfg)
		}
		tc := cfg.Traffic
		tc.Users = cfg.Users
		tc.Ticks = cfg.Ticks
		tc.FlashMultiplier = c.load
		tc.Seed = runner.TaskSeed(cfg.Seed, i)
		rep, err := trafficgen.Run(n, simCfg, tc)
		if err != nil {
			return row, fmt.Errorf("experiments: overload cell load=%g fail=%g: %w", c.load, c.frac, err)
		}
		row.Report = rep
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// OverloadText renders the sweep as an aligned table.
func OverloadText(rows []OverloadRow) string {
	var sb strings.Builder
	sb.WriteString("Overload: flash-crowd load vs AP failure (session admission + graceful degradation)\n")
	fmt.Fprintf(&sb, "%-10s %5s %5s %8s %7s %7s %7s %8s %8s %8s %8s %8s %8s %-9s\n",
		"city", "load", "fail", "offered", "deliv%", "rej%", "thr/s",
		"p50 s", "p99 s", "rej_adm", "rej_rate", "rej_buf", "drop_net", "peak")
	for _, r := range rows {
		delivPct := 0.0
		if r.Offered > 0 {
			delivPct = 100 * float64(r.Delivered) / float64(r.Offered)
		}
		fmt.Fprintf(&sb, "%-10s %4.0fx %4.0f%% %8d %6.1f%% %6.1f%% %7.2f %8.2f %8.2f %8d %8d %8d %8d %-9s\n",
			r.City, r.Load, 100*r.FailFrac, r.Offered, delivPct, 100*r.RejectRate(),
			r.Throughput, r.LatencyP50, r.LatencyP99,
			r.RejectedAdmission, r.RejectedRateLimit, r.RejectedBufferFull,
			r.DroppedNetworkExhausted, r.PeakTier)
	}
	return sb.String()
}

// OverloadCSV renders the sweep as CSV.
func OverloadCSV(rows []OverloadRow) string {
	var sb strings.Builder
	sb.WriteString("city,mode,load,fail_frac,users,ticks,offered,accepted,delivered," +
		"rej_admission,rej_rate_limit,rej_buffer_full,drop_network_exhausted," +
		"reject_rate,throughput,latency_p50,latency_p99,broadcasts,fetched,peak_tier\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%s,%s,%.2f,%.2f,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.4f,%.3f,%.3f,%.3f,%d,%d,%s\n",
			r.City, r.Mode, r.Load, r.FailFrac, r.Users, r.Ticks,
			r.Offered, r.Accepted, r.Delivered,
			r.RejectedAdmission, r.RejectedRateLimit, r.RejectedBufferFull,
			r.DroppedNetworkExhausted, r.RejectRate(), r.Throughput,
			r.LatencyP50, r.LatencyP99, r.Broadcasts, r.Fetched, r.PeakTier)
	}
	return sb.String()
}
