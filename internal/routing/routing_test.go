package routing

import (
	"math/rand"
	"testing"

	"citymesh/internal/buildinggraph"
	"citymesh/internal/citygen"
	"citymesh/internal/conduit"
	"citymesh/internal/geo"
	"citymesh/internal/mesh"
	"citymesh/internal/osm"
	"citymesh/internal/packet"
	"citymesh/internal/sim"
)

func planCity(seed int64) *osm.City {
	plan, err := citygen.Generate(citygen.SmallTestSpec(seed))
	if err != nil {
		panic(err)
	}
	city := &osm.City{Name: plan.Spec.Name, Bounds: plan.Bounds}
	for i, b := range plan.Buildings {
		city.Buildings = append(city.Buildings, &osm.Feature{
			ID: osm.ID(i + 1), Kind: osm.KindBuilding,
			Footprint: b.Footprint, Centroid: b.Footprint.Centroid(),
		})
	}
	return city
}

// buildPacket plans a CityMesh route src->dst and wraps it in a packet.
func buildPacket(t testing.TB, city *osm.City, g *buildinggraph.Graph, src, dst int, width float64) *packet.Packet {
	t.Helper()
	path, _, err := g.ShortestPath(src, dst)
	if err != nil {
		t.Fatalf("no building path %d->%d: %v", src, dst, err)
	}
	r, err := conduit.Compress(city, path, width)
	if err != nil {
		t.Fatal(err)
	}
	wps := make([]uint32, len(r.Waypoints))
	for i, w := range r.Waypoints {
		wps[i] = uint32(w)
	}
	return &packet.Packet{
		Header: packet.Header{
			TTL:       packet.DefaultTTL,
			MsgID:     uint64(src)<<32 | uint64(dst),
			Width:     uint8(width),
			Waypoints: wps,
		},
		Payload: []byte("test"),
	}
}

// reachablePair finds a building pair that is mesh-reachable with a
// multi-hop building path.
func reachablePair(t testing.TB, city *osm.City, g *buildinggraph.Graph, m *mesh.Mesh, seed int64) (int, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := city.NumBuildings()
	for trial := 0; trial < 500; trial++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b || !m.Reachable(a, b) {
			continue
		}
		path, _, err := g.ShortestPath(a, b)
		if err != nil || len(path) < 4 {
			continue
		}
		if city.Buildings[a].Centroid.Dist(city.Buildings[b].Centroid) < 200 {
			continue
		}
		return a, b
	}
	t.Skip("no suitable reachable pair found")
	return 0, 0
}

func testSetup(t testing.TB, seed int64) (*osm.City, *buildinggraph.Graph, *mesh.Mesh) {
	city := planCity(seed)
	g := buildinggraph.Build(city, buildinggraph.DefaultConfig())
	m := mesh.Place(city, mesh.DefaultConfig())
	return city, g, m
}

// runSim executes one run on a throwaway engine, failing the test if the
// run never started.
func runSim(t testing.TB, m *mesh.Mesh, city *osm.City, pol sim.Policy, pkt *packet.Packet, cfg sim.Config) sim.Result {
	t.Helper()
	res, err := sim.NewEngine(m, city, pol).Run(pkt, cfg)
	if err != nil {
		t.Fatalf("sim run: %v", err)
	}
	return res
}

func TestCityMeshDelivers(t *testing.T) {
	city, g, m := testSetup(t, 51)
	src, dst := reachablePair(t, city, g, m, 1)
	pkt := buildPacket(t, city, g, src, dst, 50)
	res := runSim(t, m, city, CityMesh{}, pkt, sim.DefaultConfig())
	if !res.Delivered {
		t.Fatalf("CityMesh failed to deliver %d->%d", src, dst)
	}
	if res.Broadcasts <= 0 {
		t.Error("no broadcasts recorded")
	}
}

func TestFloodDelivers(t *testing.T) {
	city, g, m := testSetup(t, 52)
	src, dst := reachablePair(t, city, g, m, 2)
	pkt := buildPacket(t, city, g, src, dst, 50)
	res := runSim(t, m, city, Flood{}, pkt, sim.DefaultConfig())
	if !res.Delivered {
		t.Fatal("flooding must deliver any reachable pair")
	}
}

func TestCityMeshCheaperThanFlood(t *testing.T) {
	city, g, m := testSetup(t, 53)
	src, dst := reachablePair(t, city, g, m, 3)
	pkt := buildPacket(t, city, g, src, dst, 50)
	cm := runSim(t, m, city, CityMesh{}, pkt, sim.DefaultConfig())
	fl := runSim(t, m, city, Flood{}, pkt.Clone(), sim.DefaultConfig())
	if !cm.Delivered || !fl.Delivered {
		t.Skipf("delivery cm=%v fl=%v", cm.Delivered, fl.Delivered)
	}
	if cm.Broadcasts >= fl.Broadcasts {
		t.Errorf("CityMesh broadcasts %d >= flood %d; conduit not suppressing",
			cm.Broadcasts, fl.Broadcasts)
	}
}

func TestCityMeshOnlyConduitAPsForward(t *testing.T) {
	city, g, m := testSetup(t, 54)
	src, dst := reachablePair(t, city, g, m, 4)
	pkt := buildPacket(t, city, g, src, dst, 50)
	cfg := sim.DefaultConfig()
	cfg.RecordTranscript = true
	res := runSim(t, m, city, CityMesh{}, pkt, cfg)

	wps := make([]int, len(pkt.Header.Waypoints))
	for i, w := range pkt.Header.Waypoints {
		wps[i] = int(w)
	}
	cs, err := (conduit.Route{Waypoints: wps, Width: 50}).Conduits(city)
	if err != nil {
		t.Fatal(err)
	}
	for id, rec := range res.Transcript {
		if !rec.Forwarded || id == res.SourceAP {
			continue
		}
		// Membership is by building: all APs of an in-conduit building
		// rebroadcast (§4).
		pos := m.APs[id].Pos
		if b := m.APs[id].Building; b >= 0 {
			pos = city.Buildings[b].Centroid
		}
		if !conduit.Contains(cs, pos) {
			t.Fatalf("AP %d (building %d) forwarded outside the conduit", id, m.APs[id].Building)
		}
	}
}

func TestGossipBetweenCityMeshAndFlood(t *testing.T) {
	city, g, m := testSetup(t, 55)
	src, dst := reachablePair(t, city, g, m, 5)
	pkt := buildPacket(t, city, g, src, dst, 50)
	fl := runSim(t, m, city, Flood{}, pkt.Clone(), sim.DefaultConfig())
	go65 := runSim(t, m, city, Gossip{P: 0.65}, pkt.Clone(), sim.DefaultConfig())
	if go65.Broadcasts >= fl.Broadcasts {
		t.Errorf("gossip broadcasts %d >= flood %d", go65.Broadcasts, fl.Broadcasts)
	}
}

func TestGreedyGeoUnicast(t *testing.T) {
	city, g, m := testSetup(t, 56)
	src, dst := reachablePair(t, city, g, m, 6)
	pkt := buildPacket(t, city, g, src, dst, 50)
	res := runSim(t, m, city, GreedyGeo{Fallback: true}, pkt, sim.DefaultConfig())
	// Greedy may fail at voids; but when it delivers, its broadcast count
	// must be far below flooding (it is unicast).
	if res.Delivered {
		fl := runSim(t, m, city, Flood{}, pkt.Clone(), sim.DefaultConfig())
		if res.Broadcasts >= fl.Broadcasts {
			t.Errorf("greedy %d >= flood %d", res.Broadcasts, fl.Broadcasts)
		}
	}
}

func TestGreedyGeoPureDropsAtVoid(t *testing.T) {
	// A concave arrangement: the greedy path hits a dead end.
	// Buildings along a C shape; destination behind a gap.
	var centers []geo.Point
	// Horizontal chain heading right, then the chain stops; dst beyond.
	for i := 0; i < 5; i++ {
		centers = append(centers, geo.Pt(float64(i)*35, 0))
	}
	centers = append(centers, geo.Pt(4*35+300, 0)) // dst far beyond a void
	city := &osm.City{Name: "void"}
	for i, c := range centers {
		fp := geo.Polygon{
			c.Add(geo.Pt(-7, -7)), c.Add(geo.Pt(7, -7)),
			c.Add(geo.Pt(7, 7)), c.Add(geo.Pt(-7, 7)),
		}
		city.Buildings = append(city.Buildings, &osm.Feature{
			ID: osm.ID(i + 1), Kind: osm.KindBuilding, Footprint: fp, Centroid: c,
		})
	}
	m := mesh.Place(city, mesh.DefaultConfig())
	pkt := &packet.Packet{Header: packet.Header{
		TTL: 64, MsgID: 42, Waypoints: []uint32{0, 5},
	}}
	res := runSim(t, m, city, GreedyGeo{}, pkt, sim.DefaultConfig())
	if res.Delivered {
		t.Error("greedy should not cross a 300 m void")
	}
}

func TestAODVDiscover(t *testing.T) {
	city, g, m := testSetup(t, 57)
	src, dst := reachablePair(t, city, g, m, 7)
	cost := AODVDiscoverEngine(sim.NewEngine(m, city, Flood{}), src, dst, sim.DefaultConfig())
	if !cost.Delivered {
		t.Fatal("AODV discovery should reach a reachable pair")
	}
	if cost.RREQBroadcasts <= 0 || cost.DataUnicasts <= 0 {
		t.Errorf("cost = %+v", cost)
	}
	if cost.Total() != cost.RREQBroadcasts+cost.RREPUnicasts+cost.DataUnicasts {
		t.Error("Total inconsistent")
	}
	// The flood discovery must dominate the data path cost.
	if cost.RREQBroadcasts < cost.DataUnicasts {
		t.Errorf("RREQ %d < data path %d — discovery unrealistically cheap",
			cost.RREQBroadcasts, cost.DataUnicasts)
	}
}

func TestAODVUnreachable(t *testing.T) {
	city := &osm.City{Name: "iso"}
	for i, c := range []geo.Point{geo.Pt(0, 0), geo.Pt(5000, 0)} {
		fp := geo.Polygon{
			c.Add(geo.Pt(-7, -7)), c.Add(geo.Pt(7, -7)),
			c.Add(geo.Pt(7, 7)), c.Add(geo.Pt(-7, 7)),
		}
		city.Buildings = append(city.Buildings, &osm.Feature{
			ID: osm.ID(i + 1), Kind: osm.KindBuilding, Footprint: fp, Centroid: c,
		})
	}
	m := mesh.Place(city, mesh.DefaultConfig())
	cost := AODVDiscoverEngine(sim.NewEngine(m, city, Flood{}), 0, 1, sim.DefaultConfig())
	if cost.Delivered {
		t.Error("isolated pair should not be delivered")
	}
	if cost.RREPUnicasts != 0 || cost.DataUnicasts != 0 {
		t.Error("no path costs should accrue without delivery")
	}
}

func TestPolicyNames(t *testing.T) {
	names := map[string]sim.Policy{
		"citymesh":        CityMesh{},
		"flood":           Flood{},
		"gossip":          Gossip{P: 0.5},
		"greedy":          GreedyGeo{},
		"greedy+fallback": GreedyGeo{Fallback: true},
	}
	for want, p := range names {
		if p.Name() != want {
			t.Errorf("Name = %q, want %q", p.Name(), want)
		}
	}
}

func TestCityMeshBadWaypointsNoForward(t *testing.T) {
	city, _, m := testSetup(t, 58)
	pkt := &packet.Packet{Header: packet.Header{
		TTL: 16, MsgID: 7, Waypoints: []uint32{0, 1 << 30}, // dst building unknown
	}}
	cm := CityMesh{}
	// from = -1 is the source injection: it always transmits.
	if d := cm.OnReceive(&sim.Context{City: city, Mesh: m, Dst: 0}, 0, pkt, -1); !d.Rebroadcast {
		t.Error("source injection must transmit")
	}
	// A relayed reception with unresolvable waypoints must not forward.
	if d := cm.OnReceive(&sim.Context{City: city, Mesh: m, Dst: 0}, 1, pkt, 0); d.Rebroadcast {
		t.Error("unresolvable waypoints must not trigger rebroadcast")
	}
}
