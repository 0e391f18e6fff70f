// Dynamic-disaster experiments: the fault set *moves* while delivery is
// being attempted. "datamule" pits a bus-shuttle mobile relay against
// store-and-heal alone on a river-partitioned city; "floodfront" tracks
// delivery and session-tier degradation as an advancing waterline drowns
// APs, against the static snapshot of the same final magnitude.
package experiments

import (
	"fmt"
	"math"
	"strings"

	"citymesh/internal/citygen"
	"citymesh/internal/core"
	"citymesh/internal/faults"
	"citymesh/internal/geo"
	"citymesh/internal/mesh"
	"citymesh/internal/mobility"
	"citymesh/internal/runner"
	"citymesh/internal/sim"
	"citymesh/internal/stats"
	"citymesh/internal/trafficgen"
)

// DataMuleConfig scales the bus-relay experiment.
type DataMuleConfig struct {
	// City is the preset; it must have a river (default "dc", whose wide
	// river fractures the mesh into banks — §4's observation).
	City string
	// Scale shrinks the preset (default 0.35).
	Scale float64
	// FloodFrac additionally drowns this fraction of APs nearest the water,
	// widening the dead zone so no bridgehead pair is in radio range
	// (default 0.2).
	FloodFrac float64
	// Pairs is how many cross-river building pairs are driven (default 8).
	Pairs int
	// Seed drives sampling, injection, and transport randomness.
	Seed int64
	// Buses is the shuttle fleet size; the buses run the same crossing
	// route phase-shifted by period/Buses, so one is always somewhere
	// useful (default 2).
	Buses int
	// BusSpeedMps is the shuttle speed (default 8 — a city bus).
	BusSpeedMps float64
	// HorizonS is how long a bus keeps rebroadcasting a carried message
	// (default 240 — comfortably one route crossing).
	HorizonS float64
	// Eventual tunes the store-and-heal scheduler shared by both arms;
	// zero-value uses datamule defaults (5 attempts, 20→120 s backoff).
	Eventual core.EventualConfig
	// Parallelism is the runner worker count; output is byte-identical at
	// any value.
	Parallelism int
}

// DataMuleRow is one arm of the comparison: the same cross-river pairs,
// same faults, same seeds, with and without the bus fleet.
type DataMuleRow struct {
	Arm       string
	Pairs     int
	Delivered int
	Parked    int
	// TimeToDeliverP50 is the median sim time to delivery across delivered
	// pairs (0 when nothing delivered).
	TimeToDeliverP50 float64
	// Attempts and Broadcasts are totals across all pairs.
	Attempts   int
	Broadcasts int
}

// DataMule compares store-and-heal alone against store-and-heal plus a
// bus-shuttle mobile relay on a river-partitioned city: the flooded river
// severs the banks, no static route exists, and recovery never comes — so
// the only way across is a radio that physically rides a bus. Each pair is
// one task on the parallel runner with a SplitMix64-derived seed; rows
// fold in index order, so output is byte-identical at any parallelism.
func DataMule(cfg DataMuleConfig) ([]DataMuleRow, error) {
	if cfg.City == "" {
		cfg.City = "dc"
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 0.35
	}
	if cfg.FloodFrac <= 0 {
		cfg.FloodFrac = 0.2
	}
	if cfg.Pairs <= 0 {
		cfg.Pairs = 8
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Buses <= 0 {
		cfg.Buses = 2
	}
	if cfg.BusSpeedMps <= 0 {
		cfg.BusSpeedMps = 8
	}
	if cfg.HorizonS <= 0 {
		cfg.HorizonS = 240
	}
	ecfg := cfg.Eventual
	if ecfg.MaxAttempts <= 0 {
		ecfg.MaxAttempts = 5
	}
	if ecfg.BackoffBase <= 0 {
		ecfg.BackoffBase = 20
	}
	if ecfg.BackoffMax <= 0 {
		ecfg.BackoffMax = 120
	}
	if ecfg.ParkAfter <= 0 {
		ecfg.ParkAfter = 2
	}

	spec, ok := citygen.Preset(cfg.City)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown city %q", cfg.City)
	}
	if cfg.Scale > 0 && cfg.Scale < 1 {
		spec = scaleSpec(spec, cfg.Scale)
	}
	if len(spec.Rivers) == 0 {
		return nil, fmt.Errorf("experiments: datamule needs a river city, %q has none", cfg.City)
	}
	n, err := core.FromSpec(spec, core.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", cfg.City, err)
	}

	// Widen the dead zone: drown the APs nearest the water.
	inj, err := faults.Inject(n.Mesh, n.City, faults.Config{
		Mode: faults.ModeFlood, Frac: cfg.FloodFrac, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}

	pairs, err := crossRiverPairs(n, spec, inj.FailedSet, cfg.Seed, cfg.Pairs)
	if err != nil {
		return nil, err
	}

	// The shuttle route: perpendicular to the river through its midpoint,
	// clamped inside the city, looped so the buses go back and forth.
	river := spec.Rivers[0]
	mid := river.Start.Lerp(river.End, 0.5)
	nrm := river.End.Sub(river.Start).Unit().Perp()
	reach := 0.45 * math.Min(spec.Width, spec.Height)
	clamp := func(p geo.Point) geo.Point {
		const margin = 50.0
		return geo.Pt(math.Min(math.Max(p.X, margin), spec.Width-margin),
			math.Min(math.Max(p.Y, margin), spec.Height-margin))
	}
	route, err := mobility.NewTrack(
		[]geo.Point{clamp(mid.Add(nrm.Scale(-reach))), clamp(mid.Add(nrm.Scale(reach)))},
		cfg.BusSpeedMps, 0, true)
	if err != nil {
		return nil, err
	}
	fleet := make([]sim.Mobile, cfg.Buses)
	for k := range fleet {
		fleet[k] = sim.Mobile{
			Path:     sim.OffsetPath{Base: route, Offset: float64(k) * route.Period() / float64(cfg.Buses)},
			HorizonS: cfg.HorizonS,
		}
	}

	runArm := func(arm string, mobiles []sim.Mobile, armIdx int) DataMuleRow {
		row := DataMuleRow{Arm: arm, Pairs: len(pairs)}
		type outcome struct {
			ran, delivered, parked bool
			timeToDeliver          float64
			attempts, broadcasts   int
		}
		outs := runner.Map(cfg.Parallelism, len(pairs), func(i int) outcome {
			seed := runner.TaskSeed(cfg.Seed, armIdx*100_000+i)
			sc := sim.DefaultConfig()
			sc.Seed = seed
			inj.ApplySet(&sc)
			sc.Mobiles = mobiles
			rc := core.DefaultReliableConfig()
			rc.Seed = seed
			res, err := n.SendEventually(pairs[i][0], pairs[i][1], nil, sc, rc, ecfg)
			if err != nil {
				return outcome{}
			}
			return outcome{
				ran: true, delivered: res.Delivered, parked: res.Parked,
				timeToDeliver: res.TimeToHeal,
				attempts:      res.Attempts, broadcasts: res.TotalBroadcasts,
			}
		})
		var times []float64
		for _, o := range outs {
			if !o.ran {
				continue
			}
			row.Attempts += o.attempts
			row.Broadcasts += o.broadcasts
			if o.delivered {
				row.Delivered++
				times = append(times, o.timeToDeliver)
			}
			if o.parked {
				row.Parked++
			}
		}
		if len(times) > 0 {
			row.TimeToDeliverP50 = stats.Percentile(times, 50)
		}
		return row
	}
	return []DataMuleRow{
		runArm("store-and-heal", nil, 0),
		runArm("store-and-heal+mule", fleet, 1),
	}, nil
}

// crossRiverPairs samples building pairs whose centroids sit on opposite
// sides of the city's first river — the pairs a flooded crossing severs.
// Buildings whose every AP drowned are excluded: a dead endpoint can
// neither offer a packet to the mule nor receive one from it, so such
// pairs would measure the flood, not the relay.
func crossRiverPairs(n *core.Network, spec citygen.Spec, failed mesh.NodeSet, seed int64, count int) ([][2]int, error) {
	river := spec.Rivers[0]
	dir := river.End.Sub(river.Start)
	side := func(b int) bool {
		return dir.Cross(n.City.Centroid(b).Sub(river.Start)) > 0
	}
	alive := func(b int) bool {
		for _, ap := range n.Mesh.APsInBuilding(b) {
			if !failed.Contains(int(ap)) {
				return true
			}
		}
		return false
	}
	raw, err := n.RandomPairs(seed, count*10)
	if err != nil {
		return nil, err
	}
	var out [][2]int
	for _, p := range raw {
		if len(out) >= count {
			break
		}
		if side(p[0]) != side(p[1]) && alive(p[0]) && alive(p[1]) {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: no cross-river pairs in %q (river may not split the city)", spec.Name)
	}
	return out, nil
}

// DataMuleText renders the comparison.
func DataMuleText(rows []DataMuleRow) string {
	var sb strings.Builder
	sb.WriteString("Data mule: bus-shuttle relay vs store-and-heal on a river-partitioned city\n")
	fmt.Fprintf(&sb, "%-22s %6s %6s %7s %10s %9s %10s\n",
		"arm", "pairs", "deliv", "parked", "t_deliv", "attempts", "bcast")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-22s %6d %6d %7d %9.1fs %9d %10d\n",
			r.Arm, r.Pairs, r.Delivered, r.Parked, r.TimeToDeliverP50, r.Attempts, r.Broadcasts)
	}
	return sb.String()
}

// DataMuleCSV renders the comparison as CSV.
func DataMuleCSV(rows []DataMuleRow) string {
	var sb strings.Builder
	sb.WriteString("arm,pairs,delivered,parked,time_to_deliver_p50,attempts,broadcasts\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%s,%d,%d,%d,%.2f,%d,%d\n",
			r.Arm, r.Pairs, r.Delivered, r.Parked, r.TimeToDeliverP50, r.Attempts, r.Broadcasts)
	}
	return sb.String()
}

// FloodFrontStudyConfig scales the advancing-waterline experiment.
type FloodFrontStudyConfig struct {
	// City is the preset; it must have water (default "boston").
	City string
	// Scale shrinks the preset (default 0.35).
	Scale float64
	// Frac caps the front so the final submerged fraction matches the
	// static snapshot arm (default 0.3).
	Frac float64
	// SpeedMps is the waterline speed (default 2).
	SpeedMps float64
	// JitterS is the per-AP submergence jitter bound (default 5).
	JitterS float64
	// ProbeTimes are the sim instants at which each arm is sampled
	// (default {0, 60, 180, 420}).
	ProbeTimes []float64
	// Pairs sizes the delivery probe per cell (default 10).
	Pairs int
	// Seed drives sampling, the front, and transport randomness.
	Seed int64
	// Users and Ticks size each cell's session-layer traffic run
	// (defaults 36 / 10).
	Users, Ticks int
	// Parallelism is the runner worker count over (time, arm) cells;
	// output is byte-identical at any value.
	Parallelism int
}

// FloodFrontRow is one (probe time, arm) cell.
type FloodFrontRow struct {
	Arm string
	// TimeS is the probe instant the cell's runs start at.
	TimeS float64
	// DownFrac is the fraction of APs down at the probe instant.
	DownFrac float64
	// DeliveryRate is the ladder delivery fraction over the pair sample.
	DeliveryRate float64
	// RejectRate and PeakTier summarize the session layer under the same
	// schedule: admission refusals per offered message, worst tier reached.
	RejectRate float64
	PeakTier   string
	// Offered/Delivered are the session run's message counts.
	Offered, Delivered uint64
}

// FloodFrontStudy answers "does delivery keep working while the flood is
// still advancing": the dynamic front is probed at increasing start
// instants (each run's schedule shifted there via sim.OffsetSchedule, so
// the water keeps rising *during* the run too), against the static
// ModeFlood snapshot of the same final magnitude. Each cell is one task on
// the parallel runner; rows fold in index order, so output is
// byte-identical at any parallelism.
func FloodFrontStudy(cfg FloodFrontStudyConfig) ([]FloodFrontRow, error) {
	if cfg.City == "" {
		cfg.City = "boston"
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 0.35
	}
	if cfg.Frac <= 0 {
		cfg.Frac = 0.3
	}
	if cfg.SpeedMps <= 0 {
		cfg.SpeedMps = 2
	}
	if cfg.JitterS <= 0 {
		cfg.JitterS = 5
	}
	if len(cfg.ProbeTimes) == 0 {
		cfg.ProbeTimes = []float64{0, 60, 180, 420}
	}
	if cfg.Pairs <= 0 {
		cfg.Pairs = 10
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Users <= 0 {
		cfg.Users = 36
	}
	if cfg.Ticks <= 0 {
		cfg.Ticks = 10
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
	pairs, err := sampleReachablePairs(n, cfg.Seed, cfg.Pairs)
	if err != nil {
		return nil, err
	}

	dynamic, err := faults.Inject(n.Mesh, n.City, faults.Config{
		Mode: faults.ModeFloodFront, Frac: cfg.Frac, Seed: cfg.Seed,
		FrontSpeed: cfg.SpeedMps, FrontJitter: cfg.JitterS,
	})
	if err != nil {
		return nil, err
	}
	static, err := faults.Inject(n.Mesh, n.City, faults.Config{
		Mode: faults.ModeFlood, Frac: cfg.Frac, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	front, _ := dynamic.Schedule.(interface{ DownFractionAt(float64) float64 })
	staticFrac := float64(static.FailedSet.Len()) / float64(n.Mesh.NumAPs())

	type cell struct {
		arm   string
		timeS float64
	}
	var cells []cell
	for _, ts := range cfg.ProbeTimes {
		cells = append(cells, cell{arm: "floodfront", timeS: ts}, cell{arm: "static", timeS: ts})
	}

	rows, err := runner.MapErr(cfg.Parallelism, len(cells), func(i int) (FloodFrontRow, error) {
		c := cells[i]
		row := FloodFrontRow{Arm: c.arm, TimeS: c.timeS}
		simCfg := sim.DefaultConfig()
		switch c.arm {
		case "floodfront":
			if dynamic.Schedule != nil {
				if c.timeS > 0 {
					simCfg.Schedule = sim.OffsetSchedule{Base: dynamic.Schedule, Offset: c.timeS}
				} else {
					simCfg.Schedule = dynamic.Schedule
				}
			}
			if front != nil {
				row.DownFrac = front.DownFractionAt(c.timeS)
			}
		default:
			static.ApplySet(&simCfg)
			row.DownFrac = staticFrac
		}

		// Delivery probe: the shared pair sample through the ladder.
		delivered := 0
		for pi, p := range pairs {
			seed := runner.TaskSeed(cfg.Seed, i*10_000+pi)
			sc := simCfg
			sc.Seed = seed
			rc := core.DefaultReliableConfig()
			rc.Seed = seed
			rr, err := n.SendReliable(p[0], p[1], nil, sc, rc)
			if err != nil {
				return row, err
			}
			if rr.Delivered {
				delivered++
			}
		}
		if len(pairs) > 0 {
			row.DeliveryRate = float64(delivered) / float64(len(pairs))
		}

		// Session-tier probe: a small closed-loop traffic run on the same
		// schedule — does admission control degrade gracefully as the water
		// rises, or fall off a cliff.
		rep, err := trafficgen.Run(n, simCfg, trafficgen.Config{
			Users: cfg.Users, Ticks: cfg.Ticks,
			FlashMultiplier: 2,
			Seed:            runner.TaskSeed(cfg.Seed, 500_000+i),
		})
		if err != nil {
			return row, fmt.Errorf("experiments: floodfront cell %s@%.0fs: %w", c.arm, c.timeS, err)
		}
		row.RejectRate = rep.RejectRate()
		row.PeakTier = rep.PeakTier.String()
		row.Offered = rep.Offered
		row.Delivered = rep.Delivered
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FloodFrontText renders the study as an aligned table.
func FloodFrontText(rows []FloodFrontRow) string {
	var sb strings.Builder
	sb.WriteString("Flood front: delivery and session degradation as the waterline advances\n")
	fmt.Fprintf(&sb, "%-12s %7s %6s %7s %7s %8s %8s %-9s\n",
		"arm", "t", "down%", "deliv%", "rej%", "offered", "sess_dlv", "peak")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-12s %6.0fs %5.1f%% %6.1f%% %6.1f%% %8d %8d %-9s\n",
			r.Arm, r.TimeS, 100*r.DownFrac, 100*r.DeliveryRate, 100*r.RejectRate,
			r.Offered, r.Delivered, r.PeakTier)
	}
	return sb.String()
}

// FloodFrontCSV renders the study as CSV.
func FloodFrontCSV(rows []FloodFrontRow) string {
	var sb strings.Builder
	sb.WriteString("arm,time_s,down_frac,delivery_rate,reject_rate,offered,session_delivered,peak_tier\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%s,%.0f,%.4f,%.4f,%.4f,%d,%d,%s\n",
			r.Arm, r.TimeS, r.DownFrac, r.DeliveryRate, r.RejectRate, r.Offered, r.Delivered, r.PeakTier)
	}
	return sb.String()
}
