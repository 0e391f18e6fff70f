package core

import (
	"math"
	"reflect"
	"testing"

	"citymesh/internal/citygen"
	"citymesh/internal/geo"
	"citymesh/internal/health"
	"citymesh/internal/mesh"
	"citymesh/internal/osm"
	"citymesh/internal/sim"
)

// gridCity builds square buildings of the given half-size at the points.
func gridCity(half float64, pts ...geo.Point) *osm.City {
	city := &osm.City{Name: "grid"}
	for i, p := range pts {
		fp := geo.Polygon{
			p.Add(geo.Pt(-half, -half)), p.Add(geo.Pt(half, -half)),
			p.Add(geo.Pt(half, half)), p.Add(geo.Pt(-half, half)),
		}
		city.Buildings = append(city.Buildings, &osm.Feature{
			ID: osm.ID(i + 1), Kind: osm.KindBuilding,
			Footprint: fp, Centroid: fp.Centroid(),
		})
	}
	city.Bounds = geo.RectFromPoints(pts...).Pad(half)
	return city
}

// corridorNetwork builds two parallel building corridors from x=0 to
// x=xEnd: row A at y=0 (the shortest route) and row B at y=sep, joined by
// vertical connectors at both ends. Returns the network plus the building
// index at rowA's midpoint.
func corridorNetwork(t testing.TB, xEnd, sep float64) (*Network, int, int, int) {
	t.Helper()
	var pts []geo.Point
	mid := -1
	srcIdx, dstIdx := -1, -1
	add := func(p geo.Point) int {
		pts = append(pts, p)
		return len(pts) - 1
	}
	for x := 0.0; x <= xEnd; x += 40 {
		i := add(geo.Pt(x, 0))
		if x == 0 {
			srcIdx = i
		}
		if math.Abs(x-xEnd/2) < 20 && mid < 0 {
			mid = i
		}
		if x+40 > xEnd {
			dstIdx = i
		}
	}
	for x := 0.0; x <= xEnd; x += 40 {
		add(geo.Pt(x, sep))
	}
	for y := 40.0; y < sep; y += 40 {
		add(geo.Pt(0, y))
		add(geo.Pt(xEnd-math.Mod(xEnd, 40), y))
	}
	city := gridCity(5, pts...)
	cfg := DefaultConfig()
	cfg.APDensity = 1e-12 // exactly one AP per building
	n, err := NewNetwork(city, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n, srcIdx, dstIdx, mid
}

func TestReliableDirectWinsOnHealthyMesh(t *testing.T) {
	n, src, dst, _ := corridorNetwork(t, 400, 300)
	res, err := n.SendReliable(src, dst, nil, sim.DefaultConfig(), DefaultReliableConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered || res.Rung != RungDirect {
		t.Fatalf("healthy mesh: rung = %v delivered = %v", res.Rung, res.Delivered)
	}
	if len(res.Attempts) != 1 {
		t.Errorf("ladder must stop at first success, got %d attempts", len(res.Attempts))
	}
	if res.TotalBackoff != 0 {
		t.Errorf("first attempt must not back off, got %v", res.TotalBackoff)
	}
	if res.TotalBroadcasts != res.Attempts[0].Broadcasts {
		t.Error("TotalBroadcasts mismatch")
	}
}

func TestReliableEscalatesToMultipath(t *testing.T) {
	// Kill the midpoint of the short corridor. Direct, retry and widened
	// conduits (up to 4 x 50 m lateral) all fail — the alternate corridor
	// at y=300 is beyond them — but a diverse path via row B delivers.
	n, src, dst, mid := corridorNetwork(t, 400, 300)
	simCfg := sim.DefaultConfig()
	for _, ap := range n.Mesh.APsInBuilding(mid) {
		simCfg.FailedSet = simCfg.FailedSet.Add(int(ap))
	}
	res, err := n.SendReliable(src, dst, nil, simCfg, DefaultReliableConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered {
		t.Fatalf("multipath should route around the dead midpoint: %+v", res.Attempts)
	}
	if res.Rung != RungMultipath {
		t.Fatalf("rung = %v, want multipath (attempts %+v)", res.Rung, res.Attempts)
	}
	// The ladder must have climbed in order: direct, retries, widens, then
	// multipath, and stopped there (no flood).
	wantOrder := []Rung{RungDirect, RungRetry, RungRetry, RungWiden, RungWiden, RungMultipath}
	if len(res.Attempts) != len(wantOrder) {
		t.Fatalf("attempts = %+v, want rung order %v", res.Attempts, wantOrder)
	}
	for i, a := range res.Attempts {
		if a.Rung != wantOrder[i] {
			t.Fatalf("attempt %d rung = %v, want %v", i, a.Rung, wantOrder[i])
		}
		if i > 0 && a.Backoff <= 0 {
			t.Errorf("attempt %d should have backed off", i)
		}
		if a.Delivered != (i == len(wantOrder)-1) {
			t.Errorf("attempt %d delivered = %v", i, a.Delivered)
		}
	}
	// Backoff grows (modulo +-25%% jitter, comparing attempt 1 vs 3).
	if res.Attempts[3].Backoff <= res.Attempts[1].Backoff {
		t.Errorf("backoff not growing: %v", res.Attempts)
	}
}

func TestReliableFloodRescuesMispredictedChain(t *testing.T) {
	// Buildings 47 m apart with 4 m footprints: the 45 m gap exceeds the
	// 42.5 m prediction threshold, so the building graph sees no path —
	// but APs (within +-2 m of centroids) are under the 50 m radio range.
	// Only the scoped flood, which ignores route planning, can deliver.
	var pts []geo.Point
	for i := 0; i < 6; i++ {
		pts = append(pts, geo.Pt(float64(i)*47, 0))
	}
	city := gridCity(2, pts...)
	cfg := DefaultConfig()
	cfg.APDensity = 1e-12
	n, err := NewNetwork(city, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.PlanRoute(0, 5); err == nil {
		t.Fatal("test premise broken: route should be unplannable")
	}
	res, err := n.SendReliable(0, 5, []byte("mayday"), sim.DefaultConfig(), DefaultReliableConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered || res.Rung != RungFlood {
		t.Fatalf("rung = %v delivered = %v (attempts %+v)", res.Rung, res.Delivered, res.Attempts)
	}
	// The unroutable rungs must be recorded as planning failures, not
	// silently skipped.
	if res.Attempts[0].Err == "" {
		t.Error("direct attempt should record the planning error")
	}
}

func TestReliableExhaustedWhenPartitioned(t *testing.T) {
	// Two buildings 5 km apart: nothing can deliver.
	city := gridCity(5, geo.Pt(0, 0), geo.Pt(5000, 0))
	cfg := DefaultConfig()
	cfg.APDensity = 1e-12
	n, err := NewNetwork(city, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := n.SendReliable(0, 1, nil, sim.DefaultConfig(), DefaultReliableConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered || res.Rung != RungExhausted {
		t.Fatalf("partitioned pair: %+v", res)
	}
	// The flood rung must still have been attempted.
	last := res.Attempts[len(res.Attempts)-1]
	if last.Rung != RungFlood {
		t.Errorf("last attempt = %v, want flood", last.Rung)
	}
}

func TestReliableBackoffJitteredButReproducible(t *testing.T) {
	n, src, dst, mid := corridorNetwork(t, 400, 300)
	simCfg := sim.DefaultConfig()
	for _, ap := range n.Mesh.APsInBuilding(mid) {
		simCfg.FailedSet = simCfg.FailedSet.Add(int(ap))
	}
	run := func(seed int64) ReliableResult {
		rcfg := DefaultReliableConfig()
		rcfg.Seed = seed
		res, err := n.SendReliable(src, dst, nil, simCfg, rcfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(7), run(7)
	if len(a.Attempts) != len(b.Attempts) {
		t.Fatal("same seed produced different attempt counts")
	}
	for i := range a.Attempts {
		if a.Attempts[i].Backoff != b.Attempts[i].Backoff {
			t.Fatalf("attempt %d backoff %v != %v under the same seed",
				i, a.Attempts[i].Backoff, b.Attempts[i].Backoff)
		}
	}
	c := run(8)
	differs := len(c.Attempts) != len(a.Attempts)
	for i := 0; !differs && i < len(a.Attempts); i++ {
		differs = a.Attempts[i].Backoff != c.Attempts[i].Backoff
	}
	if !differs {
		t.Error("different seeds produced identical jitter — backoff not jittered")
	}
	// Jitter stays within the configured +-25% envelope of the exponential
	// schedule.
	for i, att := range a.Attempts {
		if i == 0 {
			continue
		}
		base := backoffBase * math.Pow(2, float64(i-1))
		if base > backoffMax {
			base = backoffMax
		}
		lo, hi := base*(1-jitterFrac/2), base*(1+jitterFrac/2)
		if att.Backoff < lo-1e-12 || att.Backoff > hi+1e-12 {
			t.Errorf("attempt %d backoff %v outside [%v, %v]", i, att.Backoff, lo, hi)
		}
	}
}

func TestReliableBeatsPlainSendUnderUniformFailure(t *testing.T) {
	// The acceptance scenario in miniature: on a downtown-style grid with
	// 30% of APs dead, SendReliable must deliver strictly more pairs than
	// plain Send.
	spec, ok := citygen.Preset("gridtown")
	if !ok {
		t.Fatal("no gridtown preset")
	}
	spec.Width, spec.Height = 700, 700
	spec.DowntownRect = geo.Rect{Min: geo.Pt(100, 100), Max: geo.Pt(600, 600)}
	n, err := FromSpec(spec, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Kill 30% of APs uniformly (deterministic hash, like the ablations).
	var failed mesh.NodeSet
	span := float64(uint64(1) << 32)
	threshold := uint64(0.30 * span)
	for i := 0; i < n.Mesh.NumAPs(); i++ {
		x := uint64(i)*0x9e3779b97f4a7c15 + 99
		x ^= x >> 29
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 32
		if x&0xffffffff < threshold {
			failed = failed.Add(i)
		}
	}
	simCfg := sim.DefaultConfig()
	simCfg.FailedSet = failed

	plain, reliable := 0, 0
	pairs := 0
	sample, err := n.RandomPairs(3, 120)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range sample {
		if !n.Reachable(p[0], p[1]) {
			continue
		}
		pairs++
		if res, err := n.Send(p[0], p[1], nil, simCfg); err == nil && res.Sim.Delivered {
			plain++
		}
		rr, err := n.SendReliable(p[0], p[1], nil, simCfg, DefaultReliableConfig())
		if err == nil && rr.Delivered {
			reliable++
		}
		if pairs >= 25 {
			break
		}
	}
	if pairs < 10 {
		t.Skipf("only %d reachable pairs", pairs)
	}
	t.Logf("pairs=%d plain=%d reliable=%d", pairs, plain, reliable)
	if reliable <= plain {
		t.Errorf("SendReliable (%d/%d) must beat plain Send (%d/%d) at 30%% failure",
			reliable, pairs, plain, pairs)
	}
}

// TestReliableHealthMapLearnsAndReroutes is the self-healing loop end to
// end: with the corridor's midpoint dead, the first ladder run pays for the
// discovery (escalating past the broken direct route), feeds the failure
// into the health map, and the *second* send's direct route detours around
// the suspect region — delivering at RungDirect for strictly fewer
// broadcasts.
func TestReliableHealthMapLearnsAndReroutes(t *testing.T) {
	n, src, dst, mid := corridorNetwork(t, 400, 300)
	simCfg := sim.DefaultConfig()
	for _, ap := range n.Mesh.APsInBuilding(mid) {
		simCfg.FailedSet = simCfg.FailedSet.Add(int(ap))
	}
	hm := health.New(health.DefaultConfig())
	rcfg := DefaultReliableConfig()
	rcfg.Health = hm

	first, err := n.SendReliable(src, dst, nil, simCfg, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Delivered || first.Rung == RungDirect {
		t.Fatalf("first send should deliver via an escalated rung, got %+v", first)
	}
	if hm.Suspicion(mid) <= 0 {
		t.Fatalf("failed corridor midpoint %d has no suspicion", mid)
	}

	second, err := n.SendReliable(src, dst, nil, simCfg, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Delivered || second.Rung != RungDirect {
		t.Fatalf("second send should reroute and deliver directly, got rung %v", second.Rung)
	}
	if second.TotalBroadcasts >= first.TotalBroadcasts {
		t.Errorf("learned route costs %d broadcasts, first discovery cost %d — no saving",
			second.TotalBroadcasts, first.TotalBroadcasts)
	}
	// The learned detour actually avoids the suspect midpoint.
	path, _, err := n.Graph.ShortestPathPenalized(src, dst, hm.PenaltyFunc())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range path {
		if b == mid {
			t.Fatalf("penalized path %v still crosses dead midpoint %d", path, mid)
		}
	}
}

// TestReliableHealthSuspicionDecays: with no fresh failures the suspicion
// decays toward zero as the map's clock advances, so a healed region is
// eventually trusted again.
func TestReliableHealthSuspicionDecays(t *testing.T) {
	hm := health.New(health.DefaultConfig())
	hm.ObserveFailure([]int{7})
	before := hm.Suspicion(7)
	if before <= 0 {
		t.Fatal("no suspicion recorded")
	}
	hm.Advance(10 * health.DefaultConfig().DecayTau)
	if after := hm.Suspicion(7); after > before/1000 {
		t.Errorf("suspicion %v barely decayed from %v after 10 taus", after, before)
	}
}

// TestSendReliablePlansOnce pins the ladder's direct attempt to one planner
// call: a delivered SendReliable with no retries allocates a fixed number
// more than a plain Send of the same pair (its attempt record; the backoff
// rng is reused). A second shortest-path search for the building path, as
// the ladder once made, adds its path's allocation and fails the pin. The
// attempt's route must still be exactly planPath's, with and
// without suspicion in the health map.
func TestSendReliablePlansOnce(t *testing.T) {
	n, src, dst, mid := corridorNetwork(t, 400, 300)
	simCfg := sim.DefaultConfig()
	rcfg := DefaultReliableConfig()
	rcfg.Retries = 0

	res, err := n.SendReliable(src, dst, nil, simCfg, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered || res.Rung != RungDirect || len(res.Attempts) != 1 {
		t.Fatalf("want one delivered direct attempt, got rung %v, %d attempts", res.Rung, len(res.Attempts))
	}
	_, clean, err := n.planPath(src, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.FirstAttempt.Route, clean) {
		t.Errorf("first attempt route %+v, planPath gives %+v", res.FirstAttempt.Route, clean)
	}

	send := testing.AllocsPerRun(20, func() {
		if _, err := n.Send(src, dst, nil, simCfg); err != nil {
			t.Fatal(err)
		}
	})
	reliable := testing.AllocsPerRun(20, func() {
		if _, err := n.SendReliable(src, dst, nil, simCfg, rcfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Send %.0f allocs, SendReliable %.0f", send, reliable)
	if got := reliable - send; got != sendReliableExtraAllocs {
		t.Errorf("SendReliable allocates %.0f more than Send, want %d", got, sendReliableExtraAllocs)
	}

	hm := health.New(health.DefaultConfig())
	for i := 0; i < 5; i++ {
		hm.ObserveFailure([]int{mid})
	}
	_, want, err := n.planPath(src, dst, hm.PenaltyFunc())
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(want, clean) {
		t.Fatal("suspicion on the corridor midpoint does not change the plan")
	}
	rcfg.Health = hm
	res, err = n.SendReliable(src, dst, nil, simCfg, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.FirstAttempt.Route, want) {
		t.Errorf("under suspicion, first attempt route %+v, planPath gives %+v", res.FirstAttempt.Route, want)
	}
}

// sendReliableExtraAllocs is what a delivered direct attempt allocates on
// top of a plain Send: the one-element Attempts slice. The backoff rng
// comes from the network's free list.
const sendReliableExtraAllocs = 1
