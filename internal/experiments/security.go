package experiments

import (
	"fmt"

	"citymesh/internal/core"
	"citymesh/internal/runner"
	"citymesh/internal/sim"
)

// SecurityRow is one (attack fraction, path count) cell of the A5
// experiment: deliverability of k-route multipath under compromised
// (blackhole) APs. The paper's §1 sets the goal — "find a path between two
// nodes wishing to communicate if there exists a path that does not
// traverse a compromised node" — and this experiment measures how far
// route diversity gets toward it.
type SecurityRow struct {
	AttackFrac     float64
	Paths          int
	Pairs          int
	Deliverability float64
	BroadcastsP50  float64
}

// MultipathUnderAttack sweeps blackhole fractions × path counts on one
// city.
func MultipathUnderAttack(cityName string, scale float64, seed int64, fracs []float64, pathCounts []int, pairCount, par int) ([]SecurityRow, error) {
	if len(fracs) == 0 {
		fracs = []float64{0, 0.05, 0.1, 0.2}
	}
	if len(pathCounts) == 0 {
		pathCounts = []int{1, 2, 3}
	}
	if pairCount <= 0 {
		pairCount = 20
	}
	n, err := loadCity(cityName, scale, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	pairs, err := sampleReachablePairs(n, seed, pairCount)
	if err != nil {
		return nil, err
	}

	var rows []SecurityRow
	for _, f := range fracs {
		adv := blackholes(n.Mesh.NumAPs(), f, seed+7)
		for _, k := range pathCounts {
			t := tallyOf(runner.Map(par, len(pairs), func(i int) delivery {
				simCfg := sim.DefaultConfig()
				simCfg.Seed = runner.TaskSeed(seed, i)
				simCfg.Adversary = adv
				res, err := n.MultipathSend(pairs[i][0], pairs[i][1], nil, k, simCfg, nil)
				if err != nil {
					return delivery{}
				}
				return delivery{ran: true, delivered: res.Delivered, bcasts: float64(res.TotalBroadcasts)}
			}))
			rows = append(rows, SecurityRow{
				AttackFrac: f, Paths: k, Pairs: t.pairs,
				Deliverability: t.rate(), BroadcastsP50: p50(t.bcasts),
			})
		}
	}
	return rows, nil
}

// blackholes compromises failSet's APs as blackholes; nil when frac is 0.
func blackholes(numAPs int, frac float64, seed int64) *sim.Adversary {
	set := failSet(numAPs, frac, seed)
	if set == nil {
		return nil
	}
	adv := &sim.Adversary{Behaviors: map[int]sim.APBehavior{}}
	for ap := 0; ap < numAPs; ap++ {
		if set.Contains(ap) {
			adv.Behaviors[ap] = sim.BehaviorBlackhole
		}
	}
	return adv
}

// SecurityCSV renders the sweep as CSV.
func SecurityCSV(rows []SecurityRow) string {
	out := "attack_frac,paths,pairs,deliverability,bcast_p50\n"
	for _, r := range rows {
		out += fmt.Sprintf("%.2f,%d,%d,%.4f,%.1f\n",
			r.AttackFrac, r.Paths, r.Pairs, r.Deliverability, r.BroadcastsP50)
	}
	return out
}

// SecurityText renders the sweep as a table.
func SecurityText(rows []SecurityRow) string {
	out := fmt.Sprintf("A5: multipath deliverability under blackhole attack\n%-10s %6s %7s %8s %10s\n",
		"attack", "paths", "pairs", "deliv", "bcast p50")
	for _, r := range rows {
		out += fmt.Sprintf("%8.0f%% %6d %7d %7.1f%% %10.0f\n",
			100*r.AttackFrac, r.Paths, r.Pairs, 100*r.Deliverability, r.BroadcastsP50)
	}
	return out
}
