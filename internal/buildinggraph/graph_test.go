package buildinggraph

import (
	"errors"
	"math"
	"runtime"
	"slices"
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

// degree returns the number of predicted neighbors of building v.
func degree(g *Graph, v int) int {
	n := 0
	g.Neighbors(v, func(int, float64) { n++ })
	return n
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
	if degree(g, 3) != 0 {
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
	if degree(g, 0) < 2 {
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
	if want := []int32{0, 0, 0, 1, 1}; !slices.Equal(g.comp, want) {
		t.Errorf("component ids = %v, want %v", g.comp, want)
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

// TestShortestPathWarmCallAllocatesOnlyThePath pins the reused planner
// scratch: after one call has sized it, a search on a fixed gridtown pair
// allocates nothing but the path it returns, and the path is counted before
// it is filled, so its 140 buildings cost one allocation.
func TestShortestPathWarmCallAllocatesOnlyThePath(t *testing.T) {
	g := gridtownGraph(t)
	src, dst := 0, g.NumVertices()-1
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
	if allocs != 1 {
		t.Errorf("warm ShortestPath allocates %.1f, want 1", allocs)
	}
}

// TestBuildIsTheSameAtAnyParallelism builds every preset with one worker
// and with eight: edge discovery and the landmark searches run on the
// runner's pool, and the CSR rows, the component labels and the landmark
// table must not depend on how the work was spread.
func TestBuildIsTheSameAtAnyParallelism(t *testing.T) {
	for _, name := range append(citygen.PresetNames(), "metro") {
		spec, _ := citygen.Preset(name)
		plan, err := citygen.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		city := planCity(plan)
		prev := runtime.GOMAXPROCS(1)
		one := Build(city, DefaultConfig())
		runtime.GOMAXPROCS(8)
		eight := Build(city, DefaultConfig())
		runtime.GOMAXPROCS(prev)
		if !slices.Equal(one.off, eight.off) || !slices.Equal(one.to, eight.to) ||
			!slices.Equal(one.w, eight.w) || !slices.Equal(one.gap, eight.gap) {
			t.Errorf("%s: CSR arrays differ between 1 and 8 workers", name)
		}
		if !slices.Equal(one.comp, eight.comp) {
			t.Errorf("%s: component labels differ between 1 and 8 workers", name)
		}
		if one.lm.k != eight.lm.k || one.lm.slack != eight.lm.slack || !slices.Equal(one.lm.dist, eight.lm.dist) {
			t.Errorf("%s: landmark tables differ between 1 and 8 workers", name)
		}
		if one.lm.k != numLandmarks {
			t.Errorf("%s: %d landmarks, want %d", name, one.lm.k, numLandmarks)
		}
	}
}

// TestLandmarkBoundIsAdmissible checks the bound against exact costs on
// gridtown: for every building and a spread of destinations, the bound
// must not exceed the cheapest route's cost. The float32 table rounds
// half its entries up, so without the slack a landmark's bound to a
// destination would overshoot.
func TestLandmarkBoundIsAdmissible(t *testing.T) {
	g := gridtownGraph(t)
	n := g.NumVertices()
	var row [numLandmarks]float32
	for dst := 0; dst < n; dst += 97 {
		exact := g.dijkstraAll(dst)
		copy(row[:], g.lm.dist[dst*g.lm.k:(dst+1)*g.lm.k])
		for v := 0; v < n; v++ {
			if b := g.lm.bound(int32(v), &row); b > exact[v] {
				t.Fatalf("bound %v from %d to %d exceeds the cost %v", b, v, dst, exact[v])
			}
		}
	}
}

// TestPenaltyBelowOneIsRejected: a factor below 1, or NaN, could make a
// route cheaper than the landmark bounds allow, so the planner refuses it.
// Factors of exactly 1 and +Inf are valid.
func TestPenaltyBelowOneIsRejected(t *testing.T) {
	city := rowCity(geo.Pt(0, 0), geo.Pt(40, 0), geo.Pt(80, 0))
	g := Build(city, DefaultConfig())
	for _, bad := range []float64{0.5, 0, -1, math.NaN()} {
		vp := func(v int) float64 {
			if v == 1 {
				return bad
			}
			return 1
		}
		if _, _, err := g.ShortestPathPenalized(0, 2, vp); !errors.Is(err, ErrBadPenalty) {
			t.Errorf("vertex factor %v: err = %v, want ErrBadPenalty", bad, err)
		}
		if _, err := g.DiversePathsPenalized(0, 2, 3, 16, vp); !errors.Is(err, ErrBadPenalty) {
			t.Errorf("vertex factor %v in DiversePaths: err = %v, want ErrBadPenalty", bad, err)
		}
	}
	if _, err := g.DiversePaths(0, 2, 3, math.NaN()); !errors.Is(err, ErrBadPenalty) {
		t.Errorf("NaN diversity penalty: err = %v, want ErrBadPenalty", err)
	}
	if _, _, err := g.ShortestPathPenalized(0, 2, func(int) float64 { return 1 }); err != nil {
		t.Errorf("factor 1: %v", err)
	}
	inf := func(v int) float64 {
		if v == 1 {
			return math.Inf(1)
		}
		return 1
	}
	if _, _, err := g.ShortestPathPenalized(0, 2, inf); !errors.Is(err, ErrNoPath) {
		t.Errorf("+Inf on the only route: err = %v, want ErrNoPath", err)
	}
}

// TestSearchEpochWraps runs queries on one scratch across the wrap of its
// 32-bit epoch: the stamps are cleared there, and every answer must equal
// the one a fresh scratch gives.
func TestSearchEpochWraps(t *testing.T) {
	g := gridtownGraph(t)
	n := g.NumVertices()
	type answer struct {
		path []int
		cost float64
	}
	want := map[[2]int]answer{}
	pairs := [][2]int{{0, n - 1}, {n / 3, 2 * n / 3}, {17, n / 2}, {n - 5, 40}, {0, n - 1}}
	for _, p := range pairs {
		path, cost, err := g.ShortestPath(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		want[p] = answer{path, cost}
	}
	sc := g.getScratch()
	sc.epoch = math.MaxUint32 - 5 // three searches from the wrap
	for i := 0; i < 3; i++ {
		for _, p := range pairs {
			path, cost, err := g.shortestPath(sc, p[0], p[1], false, nil)
			if err != nil || !slices.Equal(path, want[p].path) || cost != want[p].cost {
				t.Fatalf("epoch %d, %d→%d: path %v cost %v (%v), want %v cost %v",
					sc.epoch, p[0], p[1], path, cost, err, want[p].path, want[p].cost)
			}
		}
	}
	if sc.epoch >= math.MaxUint32-5 {
		t.Fatalf("epoch %d never wrapped", sc.epoch)
	}
}

// gridtownGraph builds the graph of the gridtown preset.
func gridtownGraph(t *testing.T) *Graph {
	t.Helper()
	spec, ok := citygen.Preset("gridtown")
	if !ok {
		t.Fatal("no gridtown preset")
	}
	plan, err := citygen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return Build(planCity(plan), DefaultConfig())
}

// graphFromEdges lays out a graph over n buildings with the given
// undirected weighted edges, rows in edge order, with no landmarks.
func graphFromEdges(n int, edges [][3]float64) *Graph {
	g := &Graph{off: make([]int32, n+1), numEdges: len(edges)}
	for _, e := range edges {
		g.off[int(e[0])+1]++
		g.off[int(e[1])+1]++
	}
	for v := 0; v < n; v++ {
		g.off[v+1] += g.off[v]
	}
	next := slices.Clone(g.off[:n])
	g.to = make([]int32, 2*len(edges))
	g.w = make([]float64, 2*len(edges))
	g.gap = make([]float64, 2*len(edges))
	for _, e := range edges {
		a, b := int(e[0]), int(e[1])
		g.to[next[a]], g.w[next[a]] = int32(b), e[2]
		next[a]++
		g.to[next[b]], g.w[next[b]] = int32(a), e[2]
		next[b]++
	}
	g.label()
	return g
}

// TestEqualCostTieKeepsTheCheaperPredecessor pins the rule that makes the
// planner's routes Dijkstra's. Building 2 is reached at cost 9 both from 1
// (cost 1, edge 8) and from 11 (cost 8, edge 1). Dijkstra settles 1 first
// and keeps it. The landmark table here bounds 1 tightly and nothing else,
// so A* expands 11 — and reaches 2 through it — before it expands 1; only
// the tie rule then moves 2's predecessor to 1.
func TestEqualCostTieKeepsTheCheaperPredecessor(t *testing.T) {
	edges := [][3]float64{{0, 1, 1}, {1, 2, 8}, {2, 3, 1}, {0, 4, 1}}
	for c := 4; c < 11; c++ { // the chain 0-4-5-...-10-11
		edges = append(edges, [3]float64{float64(c), float64(c + 1), 1})
	}
	edges = append(edges, [3]float64{11, 2, 1})
	g := graphFromEdges(12, edges)
	// One landmark at 3; only building 1's entry (its cost to 3, 9) is set.
	g.lm = landmarks{k: 1, dist: make([]float32, 12), slack: 0.5}
	g.lm.dist[1] = 9
	path, cost, err := g.ShortestPath(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 3}; !slices.Equal(path, want) || cost != 10 {
		t.Errorf("path %v cost %v, want %v cost 10 (Dijkstra's)", path, cost, want)
	}
}
