package experiments

import (
	"fmt"
	"strings"

	"citymesh/internal/citygen"
	"citymesh/internal/core"
	"citymesh/internal/mesh"
	"citymesh/internal/routing"
	"citymesh/internal/runner"
	"citymesh/internal/sim"
	"citymesh/internal/stats"
)

// AblationRow is one parameter setting's outcome over a fixed pair sample.
type AblationRow struct {
	Label          string
	Pairs          int
	Deliverability float64
	OverheadMedian float64
	BroadcastsP50  float64
}

// AblationText renders ablation rows.
func AblationText(title string, rows []AblationRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n%-18s %7s %8s %10s %10s\n", title, "setting", "pairs", "deliv", "ovh p50", "bcast p50")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-18s %7d %7.1f%% %9.1fx %10.0f\n",
			r.Label, r.Pairs, 100*r.Deliverability, r.OverheadMedian, r.BroadcastsP50)
	}
	return sb.String()
}

// AblationCSV renders ablation rows as CSV.
func AblationCSV(rows []AblationRow) string {
	out := "setting,pairs,deliverability,overhead_p50,bcast_p50\n"
	for _, r := range rows {
		out += fmt.Sprintf("%s,%d,%.4f,%.2f,%.1f\n",
			r.Label, r.Pairs, r.Deliverability, r.OverheadMedian, r.BroadcastsP50)
	}
	return out
}

// sampleReachablePairs builds the shared pair sample for ablations.
func sampleReachablePairs(n *core.Network, seed int64, count int) ([][2]int, error) {
	pairs, err := n.RandomPairs(seed, count*6)
	if err != nil {
		return nil, err
	}
	var out [][2]int
	for _, p := range pairs {
		if len(out) >= count {
			break
		}
		if !n.Reachable(p[0], p[1]) {
			continue
		}
		if _, err := n.BuildingPath(p[0], p[1]); err != nil {
			continue
		}
		out = append(out, p)
	}
	return out, nil
}

// ConduitWidthSweep measures deliverability and overhead as the conduit
// width W varies (A1): narrow conduits tolerate less misprediction, wide
// conduits rebroadcast more.
func ConduitWidthSweep(cityName string, scale float64, seed int64, widths []float64, pairCount, par int) ([]AblationRow, error) {
	spec, ok := citygen.Preset(cityName)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown city %q", cityName)
	}
	if scale > 0 && scale < 1 {
		spec = scaleSpec(spec, scale)
	}
	if len(widths) == 0 {
		widths = []float64{25, 35, 50, 75, 100}
	}
	if pairCount <= 0 {
		pairCount = 30
	}

	rows := make([]AblationRow, 0, len(widths))
	for _, w := range widths {
		cfg := core.DefaultConfig()
		cfg.ConduitWidth = w
		n, err := core.FromSpec(spec, cfg)
		if err != nil {
			return nil, err
		}
		pairs, err := sampleReachablePairs(n, seed, pairCount)
		if err != nil {
			return nil, err
		}
		row := runPairs(n, pairs, fmt.Sprintf("W=%.0fm", w), seed, par)
		rows = append(rows, row)
	}
	return rows, nil
}

// WeightExponentSweep compares edge-weight exponents for the building graph
// (A2): the paper's cubed weights versus linear and squared.
func WeightExponentSweep(cityName string, scale float64, seed int64, exponents []float64, pairCount, par int) ([]AblationRow, error) {
	spec, ok := citygen.Preset(cityName)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown city %q", cityName)
	}
	if scale > 0 && scale < 1 {
		spec = scaleSpec(spec, scale)
	}
	if len(exponents) == 0 {
		exponents = []float64{1, 2, 3, 4}
	}
	if pairCount <= 0 {
		pairCount = 30
	}
	rows := make([]AblationRow, 0, len(exponents))
	for _, e := range exponents {
		cfg := core.DefaultConfig()
		cfg.WeightExponent = e
		n, err := core.FromSpec(spec, cfg)
		if err != nil {
			return nil, err
		}
		pairs, err := sampleReachablePairs(n, seed, pairCount)
		if err != nil {
			return nil, err
		}
		rows = append(rows, runPairs(n, pairs, fmt.Sprintf("gap^%.0f", e), seed, par))
	}
	return rows, nil
}

// runPairs sends across each pair under the CityMesh policy and
// summarizes. Pairs run as parallel tasks seeded by task index; the fold
// below walks results in task-index order, so output is identical at any
// parallelism.
func runPairs(n *core.Network, pairs [][2]int, label string, seed int64, par int) AblationRow {
	type outcome struct {
		ran, delivered bool
		bcasts         float64
		overhead       float64
	}
	outs := runner.Map(par, len(pairs), func(i int) outcome {
		simCfg := sim.DefaultConfig()
		simCfg.Seed = runner.TaskSeed(seed, i)
		res, err := n.Send(pairs[i][0], pairs[i][1], nil, simCfg)
		if err != nil {
			return outcome{}
		}
		return outcome{
			ran: true, delivered: res.Sim.Delivered,
			bcasts: float64(res.Sim.Broadcasts), overhead: res.Overhead(),
		}
	})
	row := AblationRow{Label: label}
	delivered := 0
	var overheads, bcasts []float64
	for _, o := range outs {
		if !o.ran {
			continue
		}
		row.Pairs++
		bcasts = append(bcasts, o.bcasts)
		if o.delivered {
			delivered++
			if o.overhead > 0 {
				overheads = append(overheads, o.overhead)
			}
		}
	}
	if row.Pairs > 0 {
		row.Deliverability = float64(delivered) / float64(row.Pairs)
	}
	if len(overheads) > 0 {
		row.OverheadMedian = stats.Percentile(overheads, 50)
	}
	if len(bcasts) > 0 {
		row.BroadcastsP50 = stats.Percentile(bcasts, 50)
	}
	return row
}

// BaselineComparison runs CityMesh against flooding, gossip, greedy
// geographic forwarding and the AODV cost model on the same pair sample
// (A3).
func BaselineComparison(cityName string, scale float64, seed int64, pairCount, par int) ([]AblationRow, error) {
	spec, ok := citygen.Preset(cityName)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown city %q", cityName)
	}
	if scale > 0 && scale < 1 {
		spec = scaleSpec(spec, scale)
	}
	if pairCount <= 0 {
		pairCount = 30
	}
	n, err := core.FromSpec(spec, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	pairs, err := sampleReachablePairs(n, seed, pairCount)
	if err != nil {
		return nil, err
	}

	policies := []sim.Policy{
		routing.NewCityMesh(),
		routing.Flood{},
		routing.Gossip{P: 0.65},
		routing.GreedyGeo{},
		routing.GreedyGeo{Fallback: true},
	}
	type outcome struct {
		ran, delivered bool
		bcasts         float64
		overhead       float64
		hasOverhead    bool
	}
	fold := func(label string, outs []outcome) AblationRow {
		row := AblationRow{Label: label}
		delivered := 0
		var overheads, bcasts []float64
		for _, o := range outs {
			if !o.ran {
				continue
			}
			row.Pairs++
			bcasts = append(bcasts, o.bcasts)
			if o.delivered {
				delivered++
				if o.hasOverhead {
					overheads = append(overheads, o.overhead)
				}
			}
		}
		if row.Pairs > 0 {
			row.Deliverability = float64(delivered) / float64(row.Pairs)
		}
		if len(overheads) > 0 {
			row.OverheadMedian = stats.Percentile(overheads, 50)
		}
		if len(bcasts) > 0 {
			row.BroadcastsP50 = stats.Percentile(bcasts, 50)
		}
		return row
	}

	// One shared engine for the whole sweep: each policy is injected per
	// run via RunPolicy, and concurrent tasks draw scratch from its pool.
	eng := n.Engine()
	var rows []AblationRow
	for _, pol := range policies {
		pol := pol
		outs := runner.Map(par, len(pairs), func(i int) outcome {
			p := pairs[i]
			r, err := n.PlanRoute(p[0], p[1])
			if err != nil {
				return outcome{}
			}
			pkt, err := n.NewPacket(r, nil)
			if err != nil {
				return outcome{}
			}
			simCfg := sim.DefaultConfig()
			simCfg.Seed = runner.TaskSeed(seed, i)
			res, err := eng.RunPolicy(pol, pkt, simCfg)
			if err != nil {
				return outcome{}
			}
			o := outcome{ran: true, delivered: res.Delivered, bcasts: float64(res.Broadcasts)}
			if res.Delivered {
				if ideal, err := n.Mesh.MinTransmissions(p[0], p[1]); err == nil && ideal > 0 {
					o.overhead, o.hasOverhead = res.Overhead(ideal), true
				}
			}
			return o
		})
		rows = append(rows, fold(pol.Name(), outs))
	}

	// AODV cost model: per-message route discovery + unicast data. The
	// RREQ flood ignores the engine's policy, so the shared engine serves
	// here too via RunPolicy inside AODVDiscoverEngine.
	outs := runner.Map(par, len(pairs), func(i int) outcome {
		p := pairs[i]
		simCfg := sim.DefaultConfig()
		simCfg.Seed = runner.TaskSeed(seed, i)
		cost := routing.AODVDiscoverEngine(eng, p[0], p[1], simCfg)
		o := outcome{ran: true, delivered: cost.Delivered, bcasts: float64(cost.Total())}
		if cost.Delivered {
			if ideal, err := n.Mesh.MinTransmissions(p[0], p[1]); err == nil && ideal > 0 {
				o.overhead, o.hasOverhead = float64(cost.Total())/float64(ideal), true
			}
		}
		return o
	})
	rows = append(rows, fold("aodv-model", outs))
	return rows, nil
}

// FailureInjection measures deliverability as a growing random fraction of
// APs fail or are compromised (A4) — the DFN resilience question from §1.
func FailureInjection(cityName string, scale float64, seed int64, fracs []float64, pairCount, par int) ([]AblationRow, error) {
	spec, ok := citygen.Preset(cityName)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown city %q", cityName)
	}
	if scale > 0 && scale < 1 {
		spec = scaleSpec(spec, scale)
	}
	if len(fracs) == 0 {
		fracs = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}
	}
	if pairCount <= 0 {
		pairCount = 30
	}
	n, err := core.FromSpec(spec, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	pairs, err := sampleReachablePairs(n, seed, pairCount)
	if err != nil {
		return nil, err
	}

	eng := n.Engine()
	rows := make([]AblationRow, 0, len(fracs))
	for _, f := range fracs {
		// One failure set per fraction, shared read-only by the inner runs.
		failed := failSet(n.Mesh.NumAPs(), f, seed)
		type outcome struct {
			ran, delivered bool
			bcasts         float64
		}
		outs := runner.Map(par, len(pairs), func(i int) outcome {
			p := pairs[i]
			r, err := n.PlanRoute(p[0], p[1])
			if err != nil {
				return outcome{}
			}
			pkt, err := n.NewPacket(r, nil)
			if err != nil {
				return outcome{}
			}
			simCfg := sim.DefaultConfig()
			simCfg.Seed = runner.TaskSeed(seed, i)
			simCfg.FailedSet = failed
			res, err := eng.Run(pkt, simCfg)
			if err != nil {
				return outcome{}
			}
			return outcome{ran: true, delivered: res.Delivered, bcasts: float64(res.Broadcasts)}
		})
		row := AblationRow{Label: fmt.Sprintf("fail=%.0f%%", 100*f)}
		delivered := 0
		var bcasts []float64
		for _, o := range outs {
			if !o.ran {
				continue
			}
			row.Pairs++
			bcasts = append(bcasts, o.bcasts)
			if o.delivered {
				delivered++
			}
		}
		if row.Pairs > 0 {
			row.Deliverability = float64(delivered) / float64(row.Pairs)
		}
		if len(bcasts) > 0 {
			row.BroadcastsP50 = stats.Percentile(bcasts, 50)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// failSet deterministically marks a fraction of AP ids as failed.
func failSet(numAPs int, frac float64, seed int64) mesh.NodeSet {
	if frac <= 0 {
		return nil
	}
	// A multiplicative hash keeps the set stable per (seed, frac) without
	// a full permutation.
	out := mesh.NewNodeSet(numAPs)
	threshold := uint64(frac * float64(1<<32))
	for i := 0; i < numAPs; i++ {
		x := uint64(i)*0x9e3779b97f4a7c15 + uint64(seed)
		x ^= x >> 29
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 32
		if x&0xffffffff < threshold {
			out = out.Add(i)
		}
	}
	return out
}
