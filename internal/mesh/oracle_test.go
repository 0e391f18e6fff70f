package mesh

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"citymesh/internal/citygen"
	"citymesh/internal/geo"
	"citymesh/internal/osm"
)

// minTransmissionsBFS is the reference MinTransmissions: the plain
// multi-source BFS the package shipped before the goal-directed search, kept
// as the oracle the search is compared with.
func minTransmissionsBFS(m *Mesh, src, dst int) (int, error) {
	if src == dst {
		return 0, nil
	}
	if src < 0 || dst < 0 || src >= len(m.byBuilding) || dst >= len(m.byBuilding) {
		return 0, fmt.Errorf("mesh: building out of range")
	}
	adj := m.Adjacency()
	dist := make([]int32, len(m.APs))
	for i := range dist {
		dist[i] = -1
	}
	var queue []int32
	for _, s := range m.byBuilding[src] {
		dist[s] = 0
		queue = append(queue, s)
	}
	inDst := make(map[int32]bool, len(m.byBuilding[dst]))
	for _, d := range m.byBuilding[dst] {
		inDst[d] = true
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range adj[v] {
			if dist[w] >= 0 {
				continue
			}
			dist[w] = dist[v] + 1
			if inDst[w] {
				return int(dist[w]), nil
			}
			queue = append(queue, w)
		}
	}
	return 0, ErrUnreachable
}

func presetMesh(t testing.TB, name string) *Mesh {
	t.Helper()
	spec, ok := citygen.Preset(name)
	if !ok {
		t.Fatalf("no preset %q", name)
	}
	plan, err := citygen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return Place(planCity(plan), DefaultConfig())
}

// checkAgainstOracle compares value and error on one pair.
func checkAgainstOracle(t *testing.T, m *Mesh, src, dst int) (reachable bool) {
	t.Helper()
	got, gotErr := m.MinTransmissions(src, dst)
	want, wantErr := minTransmissionsBFS(m, src, dst)
	if got != want || (gotErr == nil) != (wantErr == nil) ||
		errors.Is(gotErr, ErrUnreachable) != errors.Is(wantErr, ErrUnreachable) {
		t.Fatalf("MinTransmissions(%d, %d) = %d, %v; BFS says %d, %v", src, dst, got, gotErr, want, wantErr)
	}
	return gotErr == nil
}

func TestMinTransmissionsMatchesBFSOracle(t *testing.T) {
	t.Run("gridtown", func(t *testing.T) {
		m := presetMesh(t, "gridtown")
		nb := len(m.byBuilding)
		rng := rand.New(rand.NewSource(3))
		for trial := 0; trial < 2000; trial++ {
			checkAgainstOracle(t, m, rng.Intn(nb), rng.Intn(nb))
		}
	})
	t.Run("islands", func(t *testing.T) {
		// At a fifth of the paper's density the small town is fractured;
		// relay APs (Building == -1) then bridge its islands, so paths run
		// through APs no building owns.
		plan, err := citygen.Generate(citygen.SmallTestSpec(42))
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Density = 1.0 / 1000
		m := Place(planCity(plan), cfg)
		if len(m.Islands()) < 2 {
			t.Fatal("fixture has no islands")
		}
		nb := len(m.byBuilding)
		sweep := func() (reachable, unreachable int) {
			rng := rand.New(rand.NewSource(5))
			for trial := 0; trial < 1500; trial++ {
				if checkAgainstOracle(t, m, rng.Intn(nb), rng.Intn(nb)) {
					reachable++
				} else {
					unreachable++
				}
			}
			return
		}
		_, unreachable := sweep()
		if unreachable == 0 {
			t.Error("no unreachable pair sampled")
		}
		for _, b := range m.PlanBridges(1) {
			m.AddAPs(b.Relays)
		}
		if _, still := sweep(); still >= unreachable {
			t.Errorf("relays bridged nothing: %d unreachable pairs before, %d after", unreachable, still)
		}
		for b := 0; b < nb; b += 17 {
			checkAgainstOracle(t, m, b, b)
		}
		for _, p := range [][2]int{{-1, 0}, {0, -1}, {nb, 0}, {0, nb}, {nb, nb}} {
			checkAgainstOracle(t, m, p[0], p[1])
		}
	})
	t.Run("split-building", func(t *testing.T) {
		// One long building whose two APs sit in different components: the
		// search must start from every AP of the source that can reach dst,
		// and from none that cannot.
		long := geo.Polygon{geo.Pt(0, 0), geo.Pt(400, 0), geo.Pt(400, 4), geo.Pt(0, 4)}
		city := squareCity(4, geo.Pt(-40, 2), geo.Pt(440, 2), geo.Pt(2000, 2))
		city.Buildings = append(city.Buildings, &osm.Feature{ID: 9, Kind: osm.KindBuilding, Footprint: long, Centroid: long.Centroid()})
		cfg := DefaultConfig()
		cfg.Density = 2.0 / long.Area()
		m := Place(city, cfg)
		comps := map[int]bool{}
		for _, ap := range m.APsInBuilding(3) {
			comps[m.ComponentOf(int(ap))] = true
		}
		if len(comps) < 2 {
			t.Fatalf("fixture: the long building's %d APs share a component", len(m.APsInBuilding(3)))
		}
		for src := 0; src < 4; src++ {
			for dst := 0; dst < 4; dst++ {
				checkAgainstOracle(t, m, src, dst)
			}
		}
	})
	t.Run("metro", func(t *testing.T) {
		if testing.Short() {
			t.Skip("metro placement takes a few seconds")
		}
		m := presetMesh(t, "metro")
		nb := len(m.byBuilding)
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 150; trial++ {
			checkAgainstOracle(t, m, rng.Intn(nb), rng.Intn(nb))
		}
	})
}

// TestMinTransmissionsWarmCallAllocatesNothing pins the reused scratch: after
// one call has sized it, a search allocates nothing, reachable or not.
func TestMinTransmissionsWarmCallAllocatesNothing(t *testing.T) {
	m := presetMesh(t, "gridtown")
	nb := len(m.byBuilding)
	pairs := [][2]int{{0, nb - 1}, {nb / 3, nb / 2}, {nb - 1, 1}}
	for _, p := range pairs { // size the scratch and its buckets
		if _, err := m.MinTransmissions(p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, p := range pairs {
			_, _ = m.MinTransmissions(p[0], p[1])
		}
	})
	if allocs != 0 {
		t.Errorf("warm MinTransmissions allocates %.1f per %d calls, want 0", allocs, len(pairs))
	}
}

// TestBuildGraphAllocsIndependentOfSize pins the flat adjacency layout: the
// table and the union-find are a fixed handful of allocations, not one (or
// five, grown by append) per AP.
func TestBuildGraphAllocsIndependentOfSize(t *testing.T) {
	small, err := citygen.Generate(citygen.SmallTestSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*Mesh{Place(planCity(small), DefaultConfig()), presetMesh(t, "gridtown")} {
		allocs := testing.AllocsPerRun(3, m.buildGraph)
		t.Logf("%d APs, %d links: buildGraph allocates %.0f", m.NumAPs(), m.NumLinks(), allocs)
		if allocs > 8 {
			t.Errorf("buildGraph allocates %.0f for %d APs, budget 8", allocs, m.NumAPs())
		}
	}
}
