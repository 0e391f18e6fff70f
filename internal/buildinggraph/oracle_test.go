//go:build !race

package buildinggraph

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"citymesh/internal/citygen"
	"citymesh/internal/geo"
)

// The planner must answer every query exactly as the reference Dijkstra in
// reference_test.go does: the same path, the same cost bits, ErrNoPath for
// the same pairs with the same text. These tests take about 40 s of CPU, so
// the race detector run leaves them out.

// penaltyMode selects the cost multipliers a compared query runs under.
type penaltyMode int

const (
	plainMode   penaltyMode = iota // no penalties
	healthMode                     // 1 + weight·suspicion on a few buildings, as health.Map does
	factorMode                     // a random factor ≥ 1 on every building, some +Inf
	diverseMode                    // k = 3 DiversePaths at penalty 16, with health-like penalties
	numModes
)

// randomPenalty draws a vertex penalty for mode over n buildings.
func randomPenalty(mode penaltyMode, n int, rng *rand.Rand) VertexPenalty {
	switch mode {
	case healthMode, diverseMode:
		f := make([]float64, n)
		for v := range f {
			f[v] = 1
			if rng.Intn(20) == 0 {
				f[v] = 1 + 8*rng.Float64()
			}
		}
		return func(v int) float64 { return f[v] }
	case factorMode:
		f := make([]float64, n)
		for v := range f {
			switch rng.Intn(50) {
			case 0:
				f[v] = math.Inf(1)
			case 1:
				f[v] = 1
			default:
				f[v] = 1 + rng.ExpFloat64()
			}
		}
		return func(v int) float64 { return f[v] }
	}
	return nil
}

// checkPair runs one query on both graphs under mode, reports any
// difference and returns the reference's error.
func checkPair(t *testing.T, g *Graph, ref *refGraph, src, dst int, mode penaltyMode, vp VertexPenalty) error {
	t.Helper()
	if mode == diverseMode {
		got, err := g.DiversePathsPenalized(src, dst, 3, 16, vp)
		want, refErr := ref.diversePathsPenalized(src, dst, 3, 16, vp)
		if !sameErr(err, refErr) || !slices.EqualFunc(got, want, slices.Equal[[]int]) {
			t.Fatalf("DiversePaths %d→%d: got %v (%v), reference %v (%v)", src, dst, got, err, want, refErr)
		}
		return refErr
	}
	got, cost, err := g.ShortestPathPenalized(src, dst, vp)
	want, refCost, refErr := ref.shortestPathPenalized(src, dst, nil, vp)
	if !sameErr(err, refErr) || !slices.Equal(got, want) || math.Float64bits(cost) != math.Float64bits(refCost) {
		t.Fatalf("mode %d %d→%d: got %v cost %v (%v), reference %v cost %v (%v)",
			mode, src, dst, got, cost, err, want, refCost, refErr)
	}
	return refErr
}

// sameErr reports whether two errors are both nil or carry the same text.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// checkRows requires every CSR row to list the reference adjacency's
// neighbours in the same order with the same weight and gap bits.
func checkRows(t *testing.T, g *Graph, ref *refGraph) {
	t.Helper()
	if g.NumVertices() != len(ref.adj) || g.NumEdges() != ref.numEdges {
		t.Fatalf("%d buildings, %d edges; reference %d, %d", g.NumVertices(), g.NumEdges(), len(ref.adj), ref.numEdges)
	}
	for v, row := range ref.adj {
		lo, hi := int(g.off[v]), int(g.off[v+1])
		if hi-lo != len(row) {
			t.Fatalf("building %d: degree %d, reference %d", v, hi-lo, len(row))
		}
		for k, e := range row {
			if g.to[lo+k] != e.to || math.Float64bits(g.w[lo+k]) != math.Float64bits(e.weight) ||
				math.Float64bits(g.gap[lo+k]) != math.Float64bits(e.gap) {
				t.Fatalf("building %d, neighbour %d: (%d, %v, %v), reference (%d, %v, %v)",
					v, k, g.to[lo+k], g.w[lo+k], g.gap[lo+k], e.to, e.weight, e.gap)
			}
		}
	}
}

// checkFullSearch compares the landmark set-up's full search from a few
// random sources with the reference's cost to a spread of destinations.
func checkFullSearch(t *testing.T, g *Graph, ref *refGraph, rng *rand.Rand) {
	t.Helper()
	n := g.NumVertices()
	for i := 0; i < 3; i++ {
		src := rng.Intn(n)
		all := g.dijkstraAll(src)
		for dst := rng.Intn(50); dst < n; dst += 50 {
			_, cost, err := ref.shortestPath(src, dst)
			if err != nil {
				cost = math.Inf(1)
			}
			if math.Float64bits(all[dst]) != math.Float64bits(cost) {
				t.Fatalf("full search from %d: cost to %d is %v, reference %v", src, dst, all[dst], cost)
			}
		}
	}
}

// compareOnPlan builds both graphs over plan's city, compares their rows,
// then compares pairs random pairs, cycling through the penalty modes.
func compareOnPlan(t *testing.T, plan *citygen.Plan, pairs int, seed int64) {
	t.Helper()
	city := planCity(plan)
	g := Build(city, DefaultConfig())
	ref := refBuild(city, DefaultConfig())
	n := g.NumVertices()
	if n < 2 {
		t.Fatalf("%d buildings", n)
	}
	checkRows(t, g, ref)
	rng := rand.New(rand.NewSource(seed))
	checkFullSearch(t, g, ref, rng)
	noPath := 0
	for i := 0; i < pairs; i++ {
		src, dst := rng.Intn(n), rng.Intn(n)
		mode := penaltyMode(i) % numModes
		if err := checkPair(t, g, ref, src, dst, mode, randomPenalty(mode, n, rng)); errors.Is(err, ErrNoPath) {
			noPath++
		}
	}
	t.Logf("%s: %d buildings, %d landmarks, %d pairs (%d without a route)", plan.Spec.Name, n, g.lm.k, pairs, noPath)
}

func TestPlannerMatchesDijkstraOnPresets(t *testing.T) {
	for _, name := range citygen.PresetNames() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec, _ := citygen.Preset(name)
			plan, err := citygen.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			compareOnPlan(t, plan, 2000, 1)
		})
	}
}

func TestPlannerMatchesDijkstraOnMetro(t *testing.T) {
	spec, ok := citygen.Preset("metro")
	if !ok {
		t.Fatal("no metro preset")
	}
	plan, err := citygen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	compareOnPlan(t, plan, 300, 2)
}

// FuzzPlannerMatchesDijkstra compares the planner with the reference on
// small generated towns whose street width, coverage and rivers the fuzzer
// picks (wide streets and rivers fracture the graph), under the penalty
// mode it picks, on pairs it picks.
func FuzzPlannerMatchesDijkstra(f *testing.F) {
	f.Add(int64(1), uint8(14), uint8(70), false, uint8(0), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(int64(7), uint8(40), uint8(30), true, uint8(2), []byte{9, 200, 31, 77})
	f.Add(int64(3), uint8(0), uint8(100), false, uint8(3), []byte{255, 0, 128, 64, 32, 16})
	f.Fuzz(func(t *testing.T, seed int64, street, coverage uint8, river bool, mode uint8, pairs []byte) {
		spec := citygen.SmallTestSpec(seed)
		spec.StreetW = float64(street % 60)
		spec.ResidentialCoverage = 0.2 + float64(coverage%100)/125
		if river {
			spec.Rivers = []citygen.RiverSpec{{Start: geo.Pt(0, 280), End: geo.Pt(800, 340), Width: 30 + float64(street%40)}}
		}
		plan, err := citygen.Generate(spec)
		if err != nil {
			t.Skip(err)
		}
		city := planCity(plan)
		g := Build(city, DefaultConfig())
		ref := refBuild(city, DefaultConfig())
		checkRows(t, g, ref)
		n := g.NumVertices()
		if n < 2 {
			t.Skip("too few buildings")
		}
		rng := rand.New(rand.NewSource(seed))
		m := penaltyMode(mode) % numModes
		vp := randomPenalty(m, n, rng)
		for i := 0; i+1 < len(pairs) && i < 64; i += 2 {
			src := int(pairs[i]) * n / 256
			dst := int(pairs[i+1]) * n / 256
			checkPair(t, g, ref, src, dst, m, vp)
		}
	})
}
