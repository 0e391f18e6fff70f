package experiments

import (
	"fmt"

	"citymesh/internal/apps"
	"citymesh/internal/core"
	"citymesh/internal/runner"
	"citymesh/internal/sim"
	"citymesh/internal/stats"
)

// GeocastRow is one target-radius setting of the A7 experiment: coverage
// and cost of area-addressed messaging (§1's "geospatial messaging").
type GeocastRow struct {
	RadiusM       float64
	Casts         int
	CoverageP50   float64
	CoverageMean  float64
	BroadcastsP50 float64
	APsInAreaP50  float64
}

// GeocastSweep sends geocasts to random in-city target discs of each
// radius from random sources and measures in-area AP coverage. The first
// `casts` successful candidates in index order are kept (see firstN), so
// the output is the same at any parallelism.
func GeocastSweep(cityName string, scale float64, seed int64, radii []float64, casts, par int) ([]GeocastRow, error) {
	if len(radii) == 0 {
		radii = []float64{100, 200, 400}
	}
	if casts <= 0 {
		casts = 15
	}
	n, err := loadCity(cityName, scale, core.DefaultConfig())
	if err != nil {
		return nil, err
	}

	rows := make([]GeocastRow, 0, len(radii))
	for _, radius := range radii {
		pairs, err := n.RandomPairs(seed, casts*6)
		if err != nil {
			return nil, err
		}
		type outcome struct{ coverage, bcast, apsArea float64 }
		outs := firstN(par, len(pairs), casts, func(i int) (outcome, bool) {
			src := pairs[i][0]
			center := n.City.Buildings[pairs[i][1]].Centroid
			anchor := n.Graph.NearestBuilding(center)
			if anchor < 0 || !n.Reachable(src, anchor) {
				return outcome{}, false
			}
			simCfg := sim.DefaultConfig()
			simCfg.Seed = runner.TaskSeed(seed, i)
			res, err := apps.Geocast(n, src, center, radius, nil, simCfg)
			if err != nil || res.APsInArea == 0 {
				return outcome{}, false
			}
			return outcome{res.Coverage(), float64(res.Broadcasts), float64(res.APsInArea)}, true
		})
		var coverages, bcasts, inArea []float64
		for _, o := range outs {
			coverages = append(coverages, o.coverage)
			bcasts = append(bcasts, o.bcast)
			inArea = append(inArea, o.apsArea)
		}
		row := GeocastRow{
			RadiusM: radius, Casts: len(outs), CoverageP50: p50(coverages),
			BroadcastsP50: p50(bcasts), APsInAreaP50: p50(inArea),
		}
		if len(outs) > 0 {
			row.CoverageMean = stats.Mean(coverages)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// GeocastCSV renders the sweep as CSV.
func GeocastCSV(rows []GeocastRow) string {
	out := "radius_m,casts,coverage_p50,coverage_mean,bcast_p50,aps_in_area_p50\n"
	for _, r := range rows {
		out += fmt.Sprintf("%.0f,%d,%.4f,%.4f,%.1f,%.1f\n",
			r.RadiusM, r.Casts, r.CoverageP50, r.CoverageMean, r.BroadcastsP50, r.APsInAreaP50)
	}
	return out
}

// GeocastText renders the sweep.
func GeocastText(rows []GeocastRow) string {
	out := fmt.Sprintf("A7: geocast coverage by target radius\n%-10s %6s %9s %9s %10s %10s\n",
		"radius", "casts", "cov p50", "cov mean", "bcast p50", "APs p50")
	for _, r := range rows {
		out += fmt.Sprintf("%7.0f m %6d %8.1f%% %8.1f%% %10.0f %10.0f\n",
			r.RadiusM, r.Casts, 100*r.CoverageP50, 100*r.CoverageMean, r.BroadcastsP50, r.APsInAreaP50)
	}
	return out
}
