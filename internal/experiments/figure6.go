package experiments

import (
	"fmt"
	"strings"

	"citymesh/internal/citygen"
	"citymesh/internal/core"
	"citymesh/internal/runner"
	"citymesh/internal/sim"
)

// Figure6Row is one city's bar group in the paper's Figure 6: reachability,
// deliverability given reachability, and transmission overhead.
type Figure6Row struct {
	City string
	// Buildings and APs describe the realized city.
	Buildings, APs int
	// ReachabilityPairs is how many random pairs were tested.
	ReachabilityPairs int
	// Reachability is the fraction of pairs connected through the AP graph.
	Reachability float64
	// DeliverabilityPairs is how many reachable pairs ran the full
	// event-based simulation.
	DeliverabilityPairs int
	// Deliverability is the fraction of those delivered by building routing.
	Deliverability float64
	// OverheadMedian and OverheadP90 summarize broadcasts / ideal unicast
	// transmissions across delivered pairs.
	OverheadMedian, OverheadP90 float64
	// Islands is the number of AP-graph components with at least 10 APs —
	// the fracture diagnosis for low-reachability cities.
	Islands int
}

// Figure6Config scales the experiment.
type Figure6Config struct {
	// Cities to evaluate; empty means all presets.
	Cities []string
	// ReachPairs is the number of random building pairs tested for
	// reachability (the paper: 1000).
	ReachPairs int
	// DeliverPairs is the number of reachable pairs run through the full
	// event simulation (the paper: 50).
	DeliverPairs int
	// Seed drives all sampling.
	Seed int64
	// Scale shrinks the preset city extents (0 < Scale <= 1) so tests and
	// benches can run the same code quickly. 0 means full size.
	Scale float64
	// Sim overrides the per-send simulator settings; nil uses
	// sim.DefaultConfig(). The seed is set per task regardless.
	Sim *sim.Config
	// Parallelism is the worker count for the pair sweeps: 0 or negative
	// uses GOMAXPROCS, 1 forces serial. Output is byte-identical across
	// parallelism levels for the same seed.
	Parallelism int
}

// Figure6 runs the reachability/deliverability/overhead experiment for each
// city.
func Figure6(cfg Figure6Config) ([]Figure6Row, error) {
	cities := cfg.Cities
	if len(cities) == 0 {
		cities = citygen.PresetNames()
	}
	if cfg.ReachPairs <= 0 {
		cfg.ReachPairs = 1000
	}
	if cfg.DeliverPairs <= 0 {
		cfg.DeliverPairs = 50
	}
	if cfg.Sim != nil {
		if err := cfg.Sim.Validate(); err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
	}
	rows := make([]Figure6Row, 0, len(cities))
	for _, name := range cities {
		n, err := loadCity(name, cfg.Scale, core.DefaultConfig())
		if err != nil {
			return nil, err
		}
		row, err := figure6City(n, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func figure6City(n *core.Network, cfg Figure6Config) (Figure6Row, error) {
	row := Figure6Row{
		City:      n.City.Name,
		Buildings: n.City.NumBuildings(),
		APs:       n.Mesh.NumAPs(),
	}
	for _, isl := range n.Mesh.Islands() {
		if isl.APs >= 10 {
			row.Islands++
		}
	}

	// Reachability across random unique pairs.
	pairs, err := n.RandomPairs(cfg.Seed, cfg.ReachPairs)
	if err != nil {
		return Figure6Row{}, err
	}
	row.ReachabilityPairs = len(pairs)
	reach := runner.Map(cfg.Parallelism, len(pairs), func(i int) bool {
		return n.Reachable(pairs[i][0], pairs[i][1])
	})
	var reachable [][2]int
	for i, ok := range reach {
		if ok {
			reachable = append(reachable, pairs[i])
		}
	}
	row.Reachability = ratio(len(reachable), row.ReachabilityPairs)

	// Deliverability over the first DeliverPairs reachable pairs via the
	// full event simulation — one runner task per pair, seeded by task
	// index.
	base := sim.DefaultConfig()
	if cfg.Sim != nil {
		base = *cfg.Sim
	}
	limit := cfg.DeliverPairs
	if limit > len(reachable) {
		limit = len(reachable)
	}
	type outcome struct {
		delivered bool
		overhead  float64
	}
	outs := runner.Map(cfg.Parallelism, limit, func(i int) outcome {
		p := reachable[i]
		simCfg := base
		simCfg.Seed = runner.TaskSeed(cfg.Seed, i)
		res, err := n.Send(p[0], p[1], nil, simCfg)
		if err != nil {
			return outcome{} // map-predicted disconnection: a delivery failure
		}
		return outcome{delivered: res.Sim.Delivered, overhead: res.Overhead()}
	})
	delivered := 0
	var overheads []float64
	for _, o := range outs {
		row.DeliverabilityPairs++
		if o.delivered {
			delivered++
			if o.overhead > 0 {
				overheads = append(overheads, o.overhead)
			}
		}
	}
	row.Deliverability = ratio(delivered, row.DeliverabilityPairs)
	row.OverheadMedian = p50(overheads)
	row.OverheadP90 = percentile(overheads, 90)
	return row, nil
}

// Figure6Text renders the rows as an aligned table.
func Figure6Text(rows []Figure6Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 6: reachability, deliverability and transmission overhead per city\n")
	fmt.Fprintf(&sb, "%-14s %9s %8s %7s %7s %7s %9s %9s %8s\n",
		"city", "buildings", "APs", "reach", "deliv", "pairs", "ovh p50", "ovh p90", "islands")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-14s %9d %8d %6.1f%% %6.1f%% %7d %8.1fx %8.1fx %8d\n",
			r.City, r.Buildings, r.APs, 100*r.Reachability, 100*r.Deliverability,
			r.DeliverabilityPairs, r.OverheadMedian, r.OverheadP90, r.Islands)
	}
	return sb.String()
}

// Figure6CSV renders the rows as CSV.
func Figure6CSV(rows []Figure6Row) string {
	var sb strings.Builder
	sb.WriteString("city,buildings,aps,reachability,deliverability,overhead_p50,overhead_p90,islands\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%s,%d,%d,%.4f,%.4f,%.2f,%.2f,%d\n",
			r.City, r.Buildings, r.APs, r.Reachability, r.Deliverability,
			r.OverheadMedian, r.OverheadP90, r.Islands)
	}
	return sb.String()
}
