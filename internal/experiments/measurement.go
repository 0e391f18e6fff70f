// Package experiments regenerates every table and figure in the paper's
// evaluation, plus the ablations DESIGN.md commits to. Each experiment is a
// pure function from parameters to a result struct with text-table and CSV
// renderings, so the cmd/ binaries, the benchmark harness and EXPERIMENTS.md
// all share one implementation.
package experiments

import (
	"fmt"
	"strings"

	"citymesh/internal/citygen"
	"citymesh/internal/core"
	"citymesh/internal/geo"
	"citymesh/internal/measure"
	"citymesh/internal/mesh"
	"citymesh/internal/runner"
	"citymesh/internal/stats"
)

// MeasurementStudyResult reproduces §2: Table 1, Figure 1a, Figure 1b and
// Figure 2 from a simulated wardriving survey of a synthetic city.
type MeasurementStudyResult struct {
	Rows map[string]measure.Table1Row
	// MACsPerMeasurement holds Figure 1a's per-area samples.
	MACsPerMeasurement map[string]*stats.CDF
	// Spread holds Figure 1b's per-area samples.
	Spread map[string]*stats.CDF
	// CommonByDistance holds Figure 2's per-area binned common-AP counts.
	CommonByDistance map[string]*stats.Binned
	// Areas preserves presentation order.
	Areas []string
}

// MeasurementStudy surveys four areas of a generated city mirroring the
// paper's downtown / campus / residential / river walks. The four area
// surveys are independent and run as parallel tasks.
func MeasurementStudy(seed int64, par int) (*MeasurementStudyResult, error) {
	spec, err := presetSpec("boston", 0)
	if err != nil {
		return nil, err
	}
	spec.Seed = seed
	plan, err := citygen.Generate(spec)
	if err != nil {
		return nil, err
	}
	city := core.PlanToCity(plan)
	m := mesh.Place(city, mesh.Config{
		Density: 1.0 / 200.0, Range: 50, Seed: seed, MinPerBuilding: 1,
	})

	cfg := measure.DefaultConfig()
	cfg.Seed = seed

	// Survey areas mirror the preset's districts. The river track walks the
	// bank just south of the river band.
	downtown := measure.SerpentineTrack(spec.DowntownRect, 90)
	campus := measure.SerpentineTrack(spec.CampusRect, 90)
	residential := measure.SerpentineTrack(geo.Rect{
		Min: geo.Pt(200, 1200), Max: geo.Pt(1500, 1750),
	}, 110)
	riverY := 1700.0
	river := measure.LineTrack(geo.Pt(100, riverY), geo.Pt(spec.Width-100, riverY))

	// The cyclist covers the river bank faster (the paper mixed walking and
	// bicycling).
	riverCfg := cfg
	riverCfg.SpeedMps = 4

	res := &MeasurementStudyResult{
		Rows:               make(map[string]measure.Table1Row),
		MACsPerMeasurement: make(map[string]*stats.CDF),
		Spread:             make(map[string]*stats.CDF),
		CommonByDistance:   make(map[string]*stats.Binned),
		Areas:              []string{"downtown", "campus", "residential", "river"},
	}
	surveys := []struct {
		area  string
		track []geo.Point
		cfg   measure.Config
	}{
		{"downtown", downtown, cfg},
		{"campus", campus, cfg},
		{"residential", residential, cfg},
		{"river", river, riverCfg},
	}
	type areaResult struct {
		row    measure.Table1Row
		macs   *stats.CDF
		spread *stats.CDF
		common *stats.Binned
	}
	outs := runner.Map(par, len(surveys), func(i int) areaResult {
		s := surveys[i]
		ds := measure.Survey(m, s.area, s.track, s.cfg)
		return areaResult{
			row:    measure.Table1(ds),
			macs:   stats.NewCDF(measure.MACsPerMeasurement(ds)),
			spread: stats.NewCDF(measure.APSpread(ds)),
			common: measure.CommonAPs(ds, 25, 20000, seed),
		}
	})
	for i, o := range outs {
		area := surveys[i].area
		res.Rows[area] = o.row
		res.MACsPerMeasurement[area] = o.macs
		res.Spread[area] = o.spread
		res.CommonByDistance[area] = o.common
	}
	return res, nil
}

// Table1Text renders the Table 1 reproduction.
func (r *MeasurementStudyResult) Table1Text() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 1: summary of simulated survey data\n")
	fmt.Fprintf(&sb, "%-12s %8s %10s\n", "Dataset", "# Meas.", "# Unique APs")
	total := measure.Table1Row{Area: "all"}
	for _, area := range r.Areas {
		row := r.Rows[area]
		fmt.Fprintf(&sb, "%s\n", row.String())
		total.Measurements += row.Measurements
		total.UniqueAPs += row.UniqueAPs // approximation: areas barely overlap
	}
	fmt.Fprintf(&sb, "%s\n", total.String())
	return sb.String()
}

// Figure1Text renders the Figure 1a/1b medians per area.
func (r *MeasurementStudyResult) Figure1Text() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 1a: MACs per measurement (median)   Figure 1b: AP spread m (median)\n")
	for _, area := range r.Areas {
		fmt.Fprintf(&sb, "%-12s macs p50=%6.1f p90=%6.1f        spread p50=%6.1f p90=%6.1f\n",
			area,
			r.MACsPerMeasurement[area].Quantile(0.5), r.MACsPerMeasurement[area].Quantile(0.9),
			r.Spread[area].Quantile(0.5), r.Spread[area].Quantile(0.9))
	}
	return sb.String()
}

// Figure2Text renders the per-distance-bin common-AP distributions.
func (r *MeasurementStudyResult) Figure2Text() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 2: APs observed in common vs measurement-pair distance\n")
	for _, area := range r.Areas {
		fmt.Fprintf(&sb, "-- %s --\n%s", area, r.CommonByDistance[area].Table())
	}
	return sb.String()
}

// CSV renders the Figure 1 samples as CSV (area, metric, value) rows.
func (r *MeasurementStudyResult) CSV() string {
	var sb strings.Builder
	sb.WriteString("area,metric,quantile,value\n")
	for _, area := range r.Areas {
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
			fmt.Fprintf(&sb, "%s,macs_per_measurement,%.2f,%.2f\n", area, q, r.MACsPerMeasurement[area].Quantile(q))
			fmt.Fprintf(&sb, "%s,ap_spread_m,%.2f,%.2f\n", area, q, r.Spread[area].Quantile(q))
		}
	}
	return sb.String()
}
