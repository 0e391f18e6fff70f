package mesh

import (
	"math/rand"
	"testing"

	"citymesh/internal/citygen"
	"citymesh/internal/geo"
	"citymesh/internal/osm"
)

// squareCity makes n buildings of the given size at the given centers.
func squareCity(size float64, centers ...geo.Point) *osm.City {
	city := &osm.City{Name: "sq"}
	h := size / 2
	for i, c := range centers {
		fp := geo.Polygon{
			c.Add(geo.Pt(-h, -h)), c.Add(geo.Pt(h, -h)),
			c.Add(geo.Pt(h, h)), c.Add(geo.Pt(-h, h)),
		}
		city.Buildings = append(city.Buildings, &osm.Feature{
			ID: osm.ID(i + 1), Kind: osm.KindBuilding,
			Footprint: fp, Centroid: c,
		})
	}
	return city
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

func TestPlaceAPsInsideFootprints(t *testing.T) {
	plan, err := citygen.Generate(citygen.SmallTestSpec(41))
	if err != nil {
		t.Fatal(err)
	}
	city := planCity(plan)
	m := Place(city, DefaultConfig())
	if m.NumAPs() < city.NumBuildings() {
		t.Fatalf("APs %d < buildings %d (MinPerBuilding=1)", m.NumAPs(), city.NumBuildings())
	}
	for _, ap := range m.APs {
		fp := city.Buildings[ap.Building].Footprint
		if !fp.Contains(ap.Pos) && fp.DistToPoint(ap.Pos) > 1 {
			t.Fatalf("AP %d at %v outside its building %d", ap.ID, ap.Pos, ap.Building)
		}
	}
}

func TestPlaceDensityScaling(t *testing.T) {
	// One 10000 m² building: at 1/200 density expect ~50 APs.
	city := squareCity(100, geo.Pt(0, 0))
	cfg := DefaultConfig()
	m := Place(city, cfg)
	if n := m.NumAPs(); n < 35 || n > 65 {
		t.Errorf("APs = %d, want ~50", n)
	}
	// Double density, roughly double APs.
	cfg2 := cfg
	cfg2.Density = 1.0 / 100.0
	m2 := Place(city, cfg2)
	if m2.NumAPs() < m.NumAPs()*3/2 {
		t.Errorf("doubled density gives %d vs %d APs", m2.NumAPs(), m.NumAPs())
	}
}

func TestPlaceDeterministic(t *testing.T) {
	city := squareCity(50, geo.Pt(0, 0), geo.Pt(100, 0))
	a := Place(city, DefaultConfig())
	b := Place(city, DefaultConfig())
	if a.NumAPs() != b.NumAPs() {
		t.Fatal("nondeterministic AP count")
	}
	for i := range a.APs {
		if a.APs[i].Pos != b.APs[i].Pos {
			t.Fatal("nondeterministic AP positions")
		}
	}
	cfg := DefaultConfig()
	cfg.Seed = 2
	c := Place(city, cfg)
	same := c.NumAPs() == a.NumAPs()
	if same {
		for i := range c.APs {
			if c.APs[i].Pos != a.APs[i].Pos {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical placements")
	}
}

func TestReachability(t *testing.T) {
	// Two buildings 30 m apart (centroid) — APs within 50 m range.
	near := squareCity(20, geo.Pt(0, 0), geo.Pt(40, 0))
	m := Place(near, DefaultConfig())
	if !m.Reachable(0, 1) {
		t.Error("adjacent buildings should be reachable")
	}
	// Two buildings 500 m apart — isolated.
	far := squareCity(20, geo.Pt(0, 0), geo.Pt(500, 0))
	mf := Place(far, DefaultConfig())
	if mf.Reachable(0, 1) {
		t.Error("distant buildings should be unreachable")
	}
	if mf.Reachable(-1, 0) || mf.Reachable(0, 99) {
		t.Error("out-of-range buildings should be unreachable")
	}
}

func TestReachableViaChain(t *testing.T) {
	// Chain of buildings spaced so that worst-case AP placement is still
	// within range of the next building (35 m centers + 14 m footprints:
	// max AP separation 49 m < 50 m range).
	centers := []geo.Point{}
	for i := 0; i < 6; i++ {
		centers = append(centers, geo.Pt(float64(i)*35, 0))
	}
	city := squareCity(14, centers...)
	m := Place(city, DefaultConfig())
	if !m.Reachable(0, 5) {
		t.Error("chain should connect end to end")
	}
}

func TestMinTransmissions(t *testing.T) {
	// Three buildings in a row, each hop within range.
	city := squareCity(10, geo.Pt(0, 0), geo.Pt(45, 0), geo.Pt(90, 0))
	cfg := DefaultConfig()
	cfg.Density = 1e-9 // MinPerBuilding=1 gives exactly one AP each
	m := Place(city, cfg)
	if m.NumAPs() != 3 {
		t.Fatalf("APs = %d, want 3", m.NumAPs())
	}
	hops, err := m.MinTransmissions(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	// 0->1->2 = 2 transmissions (the final receive is not a transmission).
	if hops != 2 {
		t.Errorf("hops = %d, want 2", hops)
	}
	if h, err := m.MinTransmissions(1, 1); err != nil || h != 0 {
		t.Errorf("self transmissions = %d, %v", h, err)
	}
	if _, err := m.MinTransmissions(0, 99); err == nil {
		t.Error("out of range should error")
	}
}

func TestMinTransmissionsUnreachable(t *testing.T) {
	city := squareCity(10, geo.Pt(0, 0), geo.Pt(1000, 0))
	m := Place(city, DefaultConfig())
	if _, err := m.MinTransmissions(0, 1); err != ErrUnreachable {
		t.Errorf("err = %v, want ErrUnreachable", err)
	}
}

func TestNeighborsSymmetric(t *testing.T) {
	plan, err := citygen.Generate(citygen.SmallTestSpec(43))
	if err != nil {
		t.Fatal(err)
	}
	m := Place(planCity(plan), DefaultConfig())
	adj := m.Adjacency()
	for i, ns := range adj {
		for _, j := range ns {
			found := false
			for _, k := range adj[j] {
				if int(k) == i {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("adjacency asymmetric: %d->%d", i, j)
			}
		}
	}
	if m.NumLinks() <= 0 {
		t.Error("no links in a dense city")
	}
}

func TestReachabilityAgreesWithBFS(t *testing.T) {
	plan, err := citygen.Generate(citygen.SmallTestSpec(44))
	if err != nil {
		t.Fatal(err)
	}
	m := Place(planCity(plan), DefaultConfig())
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 25; trial++ {
		a := rng.Intn(len(m.byBuilding))
		b := rng.Intn(len(m.byBuilding))
		_, err := m.MinTransmissions(a, b)
		if m.Reachable(a, b) != (err == nil) {
			t.Fatalf("union-find and BFS disagree for %d-%d", a, b)
		}
	}
}

func TestIslands(t *testing.T) {
	// Two clusters far apart: 3 buildings + 2 buildings.
	city := squareCity(14,
		geo.Pt(0, 0), geo.Pt(40, 0), geo.Pt(80, 0),
		geo.Pt(2000, 0), geo.Pt(2040, 0),
	)
	m := Place(city, DefaultConfig())
	islands := m.Islands()
	if len(islands) != 2 {
		t.Fatalf("islands = %d, want 2", len(islands))
	}
	if islands[0].APs < islands[1].APs {
		t.Error("islands not sorted by size")
	}
	if islands[0].Buildings != 3 || islands[1].Buildings != 2 {
		t.Errorf("island buildings = %d, %d", islands[0].Buildings, islands[1].Buildings)
	}
}

func TestPlanBridgesAndAddAPs(t *testing.T) {
	city := squareCity(14,
		geo.Pt(0, 0), geo.Pt(40, 0),
		geo.Pt(300, 0), geo.Pt(340, 0),
	)
	m := Place(city, DefaultConfig())
	if m.Reachable(0, 2) {
		t.Fatal("clusters should start disconnected")
	}
	bridges := m.PlanBridges(1)
	if len(bridges) != 1 {
		t.Fatalf("bridges = %d, want 1", len(bridges))
	}
	br := bridges[0]
	if len(br.Relays) == 0 {
		t.Fatal("bridge over a 200+ m gap needs relays")
	}
	// Consecutive relay hops must each be under range.
	chain := append([]geo.Point{br.From}, br.Relays...)
	chain = append(chain, br.To)
	for i := 0; i+1 < len(chain); i++ {
		if d := chain[i].Dist(chain[i+1]); d >= m.Cfg.Range {
			t.Fatalf("relay hop %d is %.1f m >= range", i, d)
		}
	}
	m.AddAPs(br.Relays)
	if !m.Reachable(0, 2) {
		t.Error("bridge should connect the islands")
	}
}

func TestPlanBridgesSingleIsland(t *testing.T) {
	city := squareCity(14, geo.Pt(0, 0), geo.Pt(40, 0))
	m := Place(city, DefaultConfig())
	if got := m.PlanBridges(1); got != nil {
		t.Errorf("single island should need no bridges, got %v", got)
	}
}

func TestRelayChain(t *testing.T) {
	if r := relayChain(geo.Pt(0, 0), geo.Pt(30, 0), 50); r != nil {
		t.Errorf("within-range chain = %v", r)
	}
	r := relayChain(geo.Pt(0, 0), geo.Pt(120, 0), 50)
	if len(r) < 2 {
		t.Fatalf("relays = %v", r)
	}
}

func TestUnionFind(t *testing.T) {
	uf := newUnionFind(5)
	uf.union(0, 1)
	uf.union(3, 4)
	if uf.find(0) != uf.find(1) || uf.find(3) != uf.find(4) {
		t.Error("union failed")
	}
	if uf.find(0) == uf.find(3) {
		t.Error("distinct sets merged")
	}
	uf.union(1, 3)
	if uf.find(0) != uf.find(4) {
		t.Error("transitive union failed")
	}
	uf.union(0, 4) // already same set: no-op
	if uf.find(2) != 2 {
		t.Error("singleton moved")
	}
}

func BenchmarkPlace(b *testing.B) {
	plan, err := citygen.Generate(citygen.SmallTestSpec(45))
	if err != nil {
		b.Fatal(err)
	}
	city := planCity(plan)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Place(city, DefaultConfig())
	}
}

func BenchmarkMinTransmissions(b *testing.B) {
	for _, name := range []string{"gridtown", "metro"} {
		b.Run(name, func(b *testing.B) {
			m := presetMesh(b, name)
			n := len(m.byBuilding)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _ = m.MinTransmissions(i*7919%n, (i*13+7)%n)
			}
		})
	}
}
