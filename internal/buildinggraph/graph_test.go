package buildinggraph

import (
	"errors"
	"math"
	"testing"

	"citymesh/internal/citygen"
	"citymesh/internal/geo"
	"citymesh/internal/osm"
)

// rowCity builds small square buildings at the given centroids.
func rowCity(pts ...geo.Point) *osm.City {
	city := &osm.City{Name: "row"}
	for i, p := range pts {
		fp := geo.Polygon{
			p.Add(geo.Pt(-5, -5)), p.Add(geo.Pt(5, -5)),
			p.Add(geo.Pt(5, 5)), p.Add(geo.Pt(-5, 5)),
		}
		city.Buildings = append(city.Buildings, &osm.Feature{
			ID: osm.ID(i + 1), Kind: osm.KindBuilding,
			Footprint: fp, Centroid: fp.Centroid(),
		})
	}
	return city
}

func TestBuildEdgesWithinGap(t *testing.T) {
	// Three buildings in a row, 40 m centroid spacing => 30 m gaps; the
	// fourth is 200 m away and must be isolated.
	city := rowCity(geo.Pt(0, 0), geo.Pt(40, 0), geo.Pt(80, 0), geo.Pt(280, 0))
	g := Build(city, DefaultConfig())
	if g.NumVertices() != 4 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d, want the two 30 m gaps only", g.NumEdges())
	}
	if g.Degree(3) != 0 {
		t.Error("distant building should be isolated")
	}
}

func TestShortestPathChain(t *testing.T) {
	city := rowCity(geo.Pt(0, 0), geo.Pt(40, 0), geo.Pt(80, 0), geo.Pt(120, 0))
	g := Build(city, DefaultConfig())
	path, cost, err := g.ShortestPath(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
	// Three hops of 30 m gap, cubed.
	if wantCost := 3 * math.Pow(30, 3); math.Abs(cost-wantCost) > 1e-6 {
		t.Errorf("cost = %v, want %v", cost, wantCost)
	}
}

func TestCubedWeightsPreferShortHops(t *testing.T) {
	// A detour of two 30 m gaps must beat one direct 42 m gap under cubed
	// weights (42^3 > 2*30^3) even though it is longer in euclid terms.
	city := rowCity(
		geo.Pt(0, 0),   // 0: src
		geo.Pt(52, 0),  // 1: dst, gap 42 from src (direct edge exists)
		geo.Pt(26, 34), // 2: midpoint hop with ~30 m-ish gaps to both
	)
	g := Build(city, DefaultConfig())
	if g.Degree(0) < 2 {
		t.Skip("geometry did not produce both edges")
	}
	path, _, err := g.ShortestPath(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 3 || path[1] != 2 {
		t.Errorf("path = %v, want the two-hop detour through 2", path)
	}
}

func TestShortestPathErrors(t *testing.T) {
	city := rowCity(geo.Pt(0, 0), geo.Pt(500, 0))
	g := Build(city, DefaultConfig())
	if _, _, err := g.ShortestPath(0, 1); !errors.Is(err, ErrNoPath) {
		t.Errorf("disconnected pair: err = %v, want ErrNoPath", err)
	}
	if _, _, err := g.ShortestPath(-1, 0); err == nil {
		t.Error("out-of-range src should error")
	}
	if _, _, err := g.ShortestPath(0, 99); err == nil {
		t.Error("out-of-range dst should error")
	}
	path, cost, err := g.ShortestPath(1, 1)
	if err != nil || len(path) != 1 || cost != 0 {
		t.Errorf("self path = %v, %v, %v", path, cost, err)
	}
}

func TestDiversePathsDisjointOnGrid(t *testing.T) {
	// A 2x3 grid: two corridor choices between opposite corners. The
	// penalized second path should avoid the first path's interior edges.
	city := rowCity(
		geo.Pt(0, 0), geo.Pt(40, 0), geo.Pt(80, 0),
		geo.Pt(0, 40), geo.Pt(40, 40), geo.Pt(80, 40),
	)
	g := Build(city, DefaultConfig())
	paths, err := g.DiversePaths(0, 5, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 2 {
		t.Fatalf("paths = %v, want 2 diverse routes", paths)
	}
	// Interior vertices must differ between the two routes.
	same := true
	if len(paths[0]) != len(paths[1]) {
		same = false
	} else {
		for i := range paths[0] {
			if paths[0][i] != paths[1][i] {
				same = false
			}
		}
	}
	if same {
		t.Errorf("diverse paths identical: %v", paths)
	}
}

func TestDiversePathsFirstIsShortest(t *testing.T) {
	plan, err := citygen.Generate(citygen.SmallTestSpec(21))
	if err != nil {
		t.Fatal(err)
	}
	city := planCity(plan)
	g := Build(city, DefaultConfig())
	var tested int
	for a := 0; a < g.NumVertices() && tested < 10; a += 7 {
		b := g.NumVertices() - 1 - a
		sp, cost, err := g.ShortestPath(a, b)
		if err != nil || len(sp) < 3 {
			continue
		}
		tested++
		paths, err := g.DiversePaths(a, b, 3, 16)
		if err != nil {
			t.Fatal(err)
		}
		if len(paths) == 0 {
			t.Fatal("no paths")
		}
		gotCost := pathCost(t, g, paths[0])
		if math.Abs(gotCost-cost) > 1e-9 {
			t.Errorf("first diverse path cost %v != shortest %v (path %v vs %v)",
				gotCost, cost, paths[0], sp)
		}
	}
	if tested == 0 {
		t.Skip("no multi-hop pairs in test city")
	}
}

func pathCost(t *testing.T, g *Graph, path []int) float64 {
	t.Helper()
	total := 0.0
	for i := 0; i+1 < len(path); i++ {
		found := false
		g.Neighbors(path[i], func(w int, gap float64) {
			if w == path[i+1] {
				found = true
				wgt := gap
				if wgt < g.cfg.MinWeight {
					wgt = g.cfg.MinWeight
				}
				total += math.Pow(wgt, g.cfg.WeightExponent)
			}
		})
		if !found {
			t.Fatalf("path edge %d-%d not in graph", path[i], path[i+1])
		}
	}
	return total
}

func TestShortestPathPenalizedRoutesAroundSuspect(t *testing.T) {
	// A 2x3 grid: two equal-cost corridors between opposite corners. A
	// heavy vertex penalty on one corridor's interior must force the route
	// through the other, and lifting the penalty must restore free choice.
	city := rowCity(
		geo.Pt(0, 0), geo.Pt(40, 0), geo.Pt(80, 0), // bottom: 0 1 2
		geo.Pt(0, 40), geo.Pt(40, 40), geo.Pt(80, 40), // top: 3 4 5
	)
	g := Build(city, DefaultConfig())
	base, baseCost, err := g.ShortestPath(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != 3 || base[1] != 1 {
		t.Fatalf("unpenalized path = %v, want straight bottom corridor", base)
	}
	// Suspect the bottom midpoint: the planner must detour over the top.
	vp := func(v int) float64 {
		if v == 1 {
			return 1000
		}
		return 1
	}
	path, cost, err := g.ShortestPathPenalized(0, 2, vp)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range path {
		if v == 1 {
			t.Fatalf("penalized path %v still routes through suspect building 1", path)
		}
	}
	if cost <= baseCost {
		t.Errorf("detour cost %v should exceed direct cost %v", cost, baseCost)
	}
	// A nil penalty is exactly ShortestPath.
	same, sameCost, err := g.ShortestPathPenalized(0, 2, nil)
	if err != nil || sameCost != baseCost || len(same) != len(base) {
		t.Errorf("nil-penalty path = %v cost %v, want %v cost %v", same, sameCost, base, baseCost)
	}
}

func TestDiversePathsPenalizedAvoidsSuspects(t *testing.T) {
	city := rowCity(
		geo.Pt(0, 0), geo.Pt(40, 0), geo.Pt(80, 0),
		geo.Pt(0, 40), geo.Pt(40, 40), geo.Pt(80, 40),
	)
	g := Build(city, DefaultConfig())
	vp := func(v int) float64 {
		if v == 1 {
			return 1000
		}
		return 1
	}
	paths, err := g.DiversePathsPenalized(0, 2, 3, 16, vp)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no paths")
	}
	// The *first* diverse path must already avoid the suspect (the
	// suspicion penalty dominates the diversity penalty).
	for _, v := range paths[0] {
		if v == 1 {
			t.Fatalf("first penalized diverse path %v routes through suspect", paths[0])
		}
	}
}

func TestNearestBuilding(t *testing.T) {
	city := rowCity(geo.Pt(0, 0), geo.Pt(100, 0), geo.Pt(200, 0))
	g := Build(city, DefaultConfig())
	if got := g.NearestBuilding(geo.Pt(95, 10)); got != 1 {
		t.Errorf("NearestBuilding = %d, want 1", got)
	}
	empty := Build(&osm.City{Name: "empty"}, DefaultConfig())
	if got := empty.NearestBuilding(geo.Pt(0, 0)); got != -1 {
		t.Errorf("empty city NearestBuilding = %d, want -1", got)
	}
}

func TestComponents(t *testing.T) {
	// Two clusters separated by 500 m.
	city := rowCity(
		geo.Pt(0, 0), geo.Pt(40, 0), geo.Pt(80, 0),
		geo.Pt(600, 0), geo.Pt(640, 0),
	)
	g := Build(city, DefaultConfig())
	comps := g.Components()
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}
	if len(comps[0]) != 3 || len(comps[1]) != 2 {
		t.Errorf("component sizes = %d, %d; want 3, 2 (largest first)",
			len(comps[0]), len(comps[1]))
	}
}

func planCity(p *citygen.Plan) *osm.City {
	city := &osm.City{Name: p.Spec.Name, Bounds: p.Bounds}
	for i, b := range p.Buildings {
		city.Buildings = append(city.Buildings, &osm.Feature{
			ID: osm.ID(i + 1), Kind: osm.KindBuilding,
			Footprint: b.Footprint, Centroid: b.Footprint.Centroid(),
		})
	}
	return city
}

// TestShortestPathWarmCallAllocatesOnlyThePath pins the reused Dijkstra
// scratch: after one call has sized it, a search on a fixed gridtown pair
// allocates nothing but the path it returns. The path is grown by append,
// so its 140 buildings cost 9 allocations (capacities 1, 2, 4, ... 256).
func TestShortestPathWarmCallAllocatesOnlyThePath(t *testing.T) {
	spec, ok := citygen.Preset("gridtown")
	if !ok {
		t.Fatal("no gridtown preset")
	}
	plan, err := citygen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	g := Build(planCity(plan), DefaultConfig())
	src, dst := 0, len(g.adj)-1
	path, _, err := g.ShortestPath(src, dst) // size the scratch
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 140 {
		t.Fatalf("the pinned pair's path has %d buildings, want 140: re-measure the budget", len(path))
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := g.ShortestPath(src, dst); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm ShortestPath %d→%d (%d buildings on the path): %.1f allocs", src, dst, len(path), allocs)
	if allocs != 9 {
		t.Errorf("warm ShortestPath allocates %.1f, want 9", allocs)
	}
}
