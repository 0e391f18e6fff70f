package experiments

import (
	"fmt"

	"citymesh/internal/core"
	"citymesh/internal/runner"
	"citymesh/internal/sim"
)

// RadioRow is one PHY-model setting's outcome (A6): the paper's §6 calls
// for higher-fidelity simulation; this ablation quantifies how much the
// idealized unit-disk assumption flatters the results.
type RadioRow struct {
	Model          string
	Pairs          int
	Deliverability float64
	OverheadMedian float64
	DeliveryMsP50  float64
}

// RadioModelSweep runs the same pair sample under different radio models
// and collision settings.
func RadioModelSweep(cityName string, scale float64, seed int64, pairCount, par int) ([]RadioRow, error) {
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

	type setting struct {
		name      string
		radio     sim.RadioModel
		collision float64
		loss      float64
	}
	settings := []setting{
		{name: "unitdisk (paper)", radio: nil},
		{name: "pathloss", radio: sim.DefaultPathLoss()},
		{name: "pathloss+loss10%", radio: sim.DefaultPathLoss(), loss: 0.1},
		{name: "pathloss+collisions", radio: sim.DefaultPathLoss(), collision: 0.0002},
	}

	rows := make([]RadioRow, 0, len(settings))
	for _, st := range settings {
		t := tallyOf(runner.Map(par, len(pairs), func(i int) delivery {
			simCfg := sim.DefaultConfig()
			simCfg.Seed = runner.TaskSeed(seed, i)
			simCfg.Radio = st.radio
			simCfg.CollisionWindow = st.collision
			simCfg.LossProb = st.loss
			res, err := n.Send(pairs[i][0], pairs[i][1], nil, simCfg)
			if err != nil {
				return delivery{}
			}
			return delivery{
				ran: true, delivered: res.Sim.Delivered,
				delayMs: res.Sim.DeliveryTime * 1000, overhead: res.Overhead(),
			}
		}))
		rows = append(rows, RadioRow{
			Model: st.name, Pairs: t.pairs, Deliverability: t.rate(),
			OverheadMedian: p50(t.overheads), DeliveryMsP50: p50(t.delaysMs),
		})
	}
	return rows, nil
}

// RadioCSV renders the sweep as CSV.
func RadioCSV(rows []RadioRow) string {
	out := "model,pairs,deliverability,overhead_p50,delay_ms_p50\n"
	for _, r := range rows {
		out += fmt.Sprintf("%s,%d,%.4f,%.2f,%.1f\n",
			r.Model, r.Pairs, r.Deliverability, r.OverheadMedian, r.DeliveryMsP50)
	}
	return out
}

// RadioText renders the sweep.
func RadioText(rows []RadioRow) string {
	out := fmt.Sprintf("A6: deliverability under PHY models\n%-22s %7s %8s %9s %10s\n",
		"model", "pairs", "deliv", "ovh p50", "delay p50")
	for _, r := range rows {
		out += fmt.Sprintf("%-22s %7d %7.1f%% %8.1fx %8.0fms\n",
			r.Model, r.Pairs, 100*r.Deliverability, r.OverheadMedian, r.DeliveryMsP50)
	}
	return out
}
