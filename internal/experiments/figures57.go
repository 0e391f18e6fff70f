package experiments

import (
	"fmt"
	"io"

	"citymesh/internal/core"
	"citymesh/internal/runner"
	"citymesh/internal/sim"
	"citymesh/internal/svgrender"
)

// Figure5 renders the footprints panel (a) and the AP-graph panel (b) for a
// city preset, writing two SVG documents.
func Figure5(cityName string, scale float64, footprintsW, meshW io.Writer) error {
	n, err := loadCity(cityName, scale, core.DefaultConfig())
	if err != nil {
		return err
	}
	if err := svgrender.RenderCity(footprintsW, n.City, 1000); err != nil {
		return err
	}
	return svgrender.RenderMesh(meshW, n.City, n.Mesh, 1000)
}

// Figure7Result captures one rendered simulation.
type Figure7Result struct {
	Src, Dst  int
	Delivered bool
	// Forwarded and ReceivedOnly count the light blue and red dots.
	Forwarded, ReceivedOnly int
	Broadcasts              int
}

// Figure7 runs one full event simulation on a reachable pair with a
// multi-conduit route and renders the transcript (green route, light blue
// forwarding APs, red receive-only APs) to w. The candidate-pair scan runs
// on the parallel runner; the pick is by index order, so the chosen pair
// is the same at any parallelism.
func Figure7(cityName string, scale float64, seed int64, par int, w io.Writer) (Figure7Result, error) {
	spec, err := presetSpec(cityName, scale)
	if err != nil {
		return Figure7Result{}, err
	}
	spec.Seed = seed
	n, err := core.FromSpec(spec, core.DefaultConfig())
	if err != nil {
		return Figure7Result{}, err
	}

	// Find a long reachable pair so the figure shows a real route.
	pairs, err := n.RandomPairs(seed, 500)
	if err != nil {
		return Figure7Result{}, err
	}
	// Parallel phase: the cheap per-pair facts (reachability, distance).
	// Serial phase: the exact improving-candidate walk of the original loop
	// (PlanRoute only on candidates that beat the best so far), preserved
	// by folding in index order.
	type candidate struct {
		reachable bool
		dist      float64
	}
	cands := runner.Map(par, len(pairs), func(i int) candidate {
		p := pairs[i]
		if !n.Reachable(p[0], p[1]) {
			return candidate{}
		}
		return candidate{
			reachable: true,
			dist:      n.City.Buildings[p[0]].Centroid.Dist(n.City.Buildings[p[1]].Centroid),
		}
	})
	var src, dst int
	found := false
	bestLen := 0.0
	for i, c := range cands {
		if !c.reachable || c.dist <= bestLen {
			continue
		}
		p := pairs[i]
		if _, err := n.PlanRoute(p[0], p[1]); err == nil {
			src, dst, bestLen, found = p[0], p[1], c.dist, true
		}
	}
	if !found {
		return Figure7Result{}, fmt.Errorf("experiments: no reachable routed pair in %s", cityName)
	}

	route, err := n.PlanRoute(src, dst)
	if err != nil {
		return Figure7Result{}, err
	}
	pkt, err := n.NewPacket(route, nil)
	if err != nil {
		return Figure7Result{}, err
	}
	simCfg := sim.DefaultConfig()
	simCfg.Seed = seed
	simCfg.RecordTranscript = true
	res, err := n.Engine().Run(pkt, simCfg)
	if err != nil {
		return Figure7Result{}, err
	}

	conduits, err := route.Conduits(n.City)
	if err != nil {
		return Figure7Result{}, err
	}
	path, err := n.BuildingPath(src, dst)
	if err != nil {
		return Figure7Result{}, err
	}
	if err := svgrender.RenderSimulation(w, n.City, n.Mesh, conduits, path, res, 1000); err != nil {
		return Figure7Result{}, err
	}
	out := Figure7Result{Src: src, Dst: dst, Delivered: res.Delivered, Broadcasts: res.Broadcasts}
	for _, rec := range res.Transcript {
		if !rec.Received {
			continue
		}
		if rec.Forwarded {
			out.Forwarded++
		} else {
			out.ReceivedOnly++
		}
	}
	return out, nil
}
