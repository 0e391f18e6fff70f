package internetwork

import (
	"math"
	"reflect"
	"testing"

	"citymesh/internal/citygen"
	"citymesh/internal/core"
	"citymesh/internal/sim"
)

// region builds a tiny test region with ngw gateways chosen inside the
// largest mesh island, so legs between island buildings can deliver.
func region(t testing.TB, id RegionID, seed int64, ngw int) *Region {
	t.Helper()
	n, err := core.FromSpec(citygen.SmallTestSpec(seed), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	island := islandBuildings(n)
	if len(island) < ngw {
		t.Fatalf("island has only %d buildings, need %d gateways", len(island), ngw)
	}
	return &Region{ID: id, Net: n, Gateways: island[:ngw]}
}

// islandBuildings lists the buildings of the largest mesh island.
func islandBuildings(n *core.Network) []int {
	islands := n.Mesh.Islands()
	if len(islands) == 0 {
		return nil
	}
	var out []int
	for b := 0; b < n.City.NumBuildings(); b++ {
		aps := n.Mesh.APsInBuilding(b)
		if len(aps) > 0 && n.Mesh.ComponentOf(int(aps[0])) == islands[0].Component {
			out = append(out, b)
		}
	}
	return out
}

// pickRouted returns a building in the region's main island, distinct from
// its gateways, with plannable routes to and from every gateway.
func pickRouted(t testing.TB, r *Region) int {
	t.Helper()
	isGW := map[int]bool{}
	for _, g := range r.Gateways {
		isGW[g] = true
	}
	for _, b := range islandBuildings(r.Net) {
		if isGW[b] {
			continue
		}
		ok := true
		for _, g := range r.Gateways {
			if _, err := r.Net.PlanRoute(b, g); err != nil {
				ok = false
				break
			}
			if _, err := r.Net.PlanRoute(g, b); err != nil {
				ok = false
				break
			}
		}
		if ok {
			return b
		}
	}
	t.Skip("no gateway-routable building")
	return -1
}

func buildInternetwork(t testing.TB) (*Internetwork, *Region, *Region, *Region) {
	t.Helper()
	in := New()
	ra := region(t, "boston", 211, 1)
	rb := region(t, "providence", 212, 2)
	rc := region(t, "worcester", 213, 1)
	for _, r := range []*Region{ra, rb, rc} {
		if err := in.AddRegion(r); err != nil {
			t.Fatal(err)
		}
	}
	// boston <-fiber-> worcester <-satellite-> providence
	if err := in.AddLink(Link{A: "boston", B: "worcester", Kind: LinkFiber}); err != nil {
		t.Fatal(err)
	}
	if err := in.AddLink(Link{A: "worcester", B: "providence", Kind: LinkSatellite}); err != nil {
		t.Fatal(err)
	}
	return in, ra, rb, rc
}

func TestAddValidation(t *testing.T) {
	in := New()
	if err := in.AddRegion(nil); err == nil {
		t.Error("nil region accepted")
	}
	r := region(t, "x", 214, 1)
	if err := in.AddRegion(r); err != nil {
		t.Fatal(err)
	}
	if err := in.AddRegion(r); err == nil {
		t.Error("duplicate region accepted")
	}
	bad := region(t, "y", 215, 1)
	bad.Gateways = []int{1 << 20}
	if err := in.AddRegion(bad); err == nil {
		t.Error("out-of-range gateway accepted")
	}
	dup := region(t, "z", 216, 1)
	dup.Gateways = []int{dup.Gateways[0], dup.Gateways[0]}
	if err := in.AddRegion(dup); err == nil {
		t.Error("duplicate gateways accepted")
	}
	if err := in.AddLink(Link{A: "x", B: "nope"}); err == nil {
		t.Error("link to unknown region accepted")
	}
	if err := in.AddLink(Link{A: "x", B: "x"}); err == nil {
		t.Error("self link accepted")
	}
}

func TestGatewayNormalization(t *testing.T) {
	in := New()
	// Gateways takes precedence and rewrites the legacy Gateway field.
	r := region(t, "multi", 217, 3)
	r.Gateway = 1 << 10 // garbage; must be overwritten by Gateways[0]
	if err := in.AddRegion(r); err != nil {
		t.Fatal(err)
	}
	if r.Gateway != r.Gateways[0] {
		t.Errorf("Gateway = %d, want primary %d", r.Gateway, r.Gateways[0])
	}
	// Legacy single-Gateway regions get a one-entry Gateways list.
	legacy := region(t, "legacy-src", 218, 1)
	single := &Region{ID: "legacy", Net: legacy.Net, Gateway: legacy.Gateways[0]}
	single.Gateways = nil
	if err := in.AddRegion(single); err != nil {
		t.Fatal(err)
	}
	if len(single.Gateways) != 1 || single.Gateways[0] != single.Gateway {
		t.Errorf("Gateways = %v, want [%d]", single.Gateways, single.Gateway)
	}
}

func TestRegionPath(t *testing.T) {
	in, _, _, _ := buildInternetwork(t)
	path, latency, err := in.RegionPath("boston", "providence")
	if err != nil {
		t.Fatal(err)
	}
	want := []RegionID{"boston", "worcester", "providence"}
	if !reflect.DeepEqual(path, want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	if latency < 0.6 { // satellite leg dominates
		t.Errorf("latency = %v", latency)
	}
	p, l, err := in.RegionPath("boston", "boston")
	if err != nil || len(p) != 1 || l != 0 {
		t.Errorf("self path = %v, %v, %v", p, l, err)
	}
	if _, _, err := in.RegionPath("boston", "nowhere"); err == nil {
		t.Error("unknown region accepted")
	}
}

func TestRegionPathPrefersLowLatency(t *testing.T) {
	in, _, _, _ := buildInternetwork(t)
	// Direct satellite boston<->providence (0.6) beats fiber+satellite
	// (0.61).
	if err := in.AddLink(Link{A: "boston", B: "providence", Kind: LinkSatellite}); err != nil {
		t.Fatal(err)
	}
	path, _, err := in.RegionPath("boston", "providence")
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 2 {
		t.Errorf("path = %v, want direct", path)
	}
}

func TestFailLinkFlap(t *testing.T) {
	in, _, _, _ := buildInternetwork(t)
	// down -> up -> down: path state must track every transition.
	if n := in.FailLink("worcester", "providence", true); n != 1 {
		t.Fatalf("failed %d links", n)
	}
	if _, _, err := in.RegionPath("boston", "providence"); err == nil {
		t.Error("partitioned inter-network still routes")
	}
	if n := in.FailLink("worcester", "providence", false); n != 1 {
		t.Fatalf("restored %d links", n)
	}
	if _, _, err := in.RegionPath("boston", "providence"); err != nil {
		t.Errorf("restored path: %v", err)
	}
	if n := in.FailLink("worcester", "providence", true); n != 1 {
		t.Fatalf("re-failed %d links", n)
	}
	if _, _, err := in.RegionPath("boston", "providence"); err == nil {
		t.Error("re-failed link still routes")
	}
	// Idempotence: failing an already-down link changes nothing.
	if n := in.FailLink("worcester", "providence", true); n != 0 {
		t.Errorf("re-failing a down link changed %d links", n)
	}
}

// diamond builds a 4-region graph with two equal-cost paths a-b-d and
// a-c-d (every link identical latency and bandwidth).
func diamond(t testing.TB) *Internetwork {
	t.Helper()
	in := New()
	for i, id := range []RegionID{"a", "b", "c", "d"} {
		if err := in.AddRegion(region(t, id, 230+int64(i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range []Link{
		{A: "a", B: "b"}, {A: "b", B: "d"},
		{A: "a", B: "c"}, {A: "c", B: "d"},
	} {
		l.LatencySeconds = 0.01
		l.BandwidthMbps = 1000
		if err := in.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	return in
}

func TestSeededTiebreakDeterminism(t *testing.T) {
	in := diamond(t)
	seen := map[string]bool{}
	for seed := int64(0); seed < 20; seed++ {
		first, _, err := in.RegionPathSeeded("a", "d", seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(first) != 3 {
			t.Fatalf("seed %d: path %v, want length 3", seed, first)
		}
		// Same seed, same path — every time.
		for rep := 0; rep < 3; rep++ {
			again, _, err := in.RegionPathSeeded("a", "d", seed)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first, again) {
				t.Fatalf("seed %d: path flapped %v -> %v", seed, first, again)
			}
		}
		seen[string(first[1])] = true
	}
	// The seed genuinely selects among the equal-cost alternatives.
	if len(seen) < 2 {
		t.Errorf("20 seeds never varied the equal-cost choice: %v", seen)
	}
}

func TestInterRegionSend(t *testing.T) {
	in, ra, rb, _ := buildInternetwork(t)
	srcB := pickRouted(t, ra)
	dstB := pickRouted(t, rb)

	res, err := in.Send(
		Address{Region: "boston", Building: srcB},
		Address{Region: "providence", Building: dstB},
		[]byte("inter-city hello"), sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered {
		t.Fatalf("send failed (%v): legs %+v", res.Failure, res.Legs)
	}
	want := []RegionID{"boston", "worcester", "providence"}
	if !reflect.DeepEqual(res.RegionPath, want) {
		t.Fatalf("region path = %v", res.RegionPath)
	}
	if res.LinkHops != 2 {
		t.Errorf("link hops = %d", res.LinkHops)
	}
	// The transit region (one gateway) is a passthrough leg.
	foundPass := false
	for _, leg := range res.Legs {
		if leg.Region == "worcester" {
			if leg.Reason != LegPassthrough || leg.Src != leg.Dst {
				t.Errorf("transit leg not a passthrough: %+v", leg)
			}
			foundPass = true
		}
	}
	if !foundPass {
		t.Error("no transit leg recorded")
	}
	if res.TotalBroadcasts == 0 {
		t.Error("delivered with no broadcasts")
	}
	lat, ok := res.EndToEndLatency()
	if !ok || lat < res.LinkLatency {
		t.Errorf("latency = %v ok=%v, link latency %v", lat, ok, res.LinkLatency)
	}
	if res.Failure != FailNone {
		t.Errorf("Failure = %v on a delivered send", res.Failure)
	}
	if res.PrefixBits <= 0 || res.PrefixBits > 64 {
		t.Errorf("prefix bits = %d, want small and positive", res.PrefixBits)
	}
}

func TestSendDeterministic(t *testing.T) {
	in, ra, rb, _ := buildInternetwork(t)
	srcB := pickRouted(t, ra)
	dstB := pickRouted(t, rb)
	src := Address{Region: "boston", Building: srcB}
	dst := Address{Region: "providence", Building: dstB}
	a, err := in.Send(src, dst, []byte("x"), sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := in.Send(src, dst, []byte("x"), sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same send differed:\n%+v\nvs\n%+v", a, b)
	}
}

func TestSendSameRegion(t *testing.T) {
	in, ra, _, _ := buildInternetwork(t)
	b := pickRouted(t, ra)
	gw := ra.Gateways[0]
	res, err := in.Send(
		Address{Region: "boston", Building: b},
		Address{Region: "boston", Building: gw},
		nil, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RegionPath) != 1 || res.LinkLatency != 0 || res.LinkHops != 0 {
		t.Errorf("same-region path = %v, latency %v", res.RegionPath, res.LinkLatency)
	}
	if res.PrefixBits != 0 {
		t.Errorf("same-region send carries a region prefix (%d bits)", res.PrefixBits)
	}
	// Degenerate same-building send: a trivially delivered passthrough.
	res, err = in.Send(
		Address{Region: "boston", Building: b},
		Address{Region: "boston", Building: b},
		nil, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered || len(res.Legs) != 1 || res.Legs[0].Reason != LegPassthrough {
		t.Errorf("same-building send: %+v", res)
	}
}

func TestSendUnknownRegionAndBadBuilding(t *testing.T) {
	in, _, _, _ := buildInternetwork(t)
	if _, err := in.Send(Address{Region: "mars"}, Address{Region: "boston"}, nil, sim.DefaultConfig()); err == nil {
		t.Error("unknown src region accepted")
	}
	if _, err := in.Send(Address{Region: "boston"}, Address{Region: "mars"}, nil, sim.DefaultConfig()); err == nil {
		t.Error("unknown dst region accepted")
	}
	if _, err := in.Send(
		Address{Region: "boston", Building: 1 << 20},
		Address{Region: "providence", Building: 0},
		nil, sim.DefaultConfig()); err == nil {
		t.Error("out-of-range building accepted")
	}
}

func TestSendNoLinkPathIsReportedNotSwallowed(t *testing.T) {
	in, ra, rb, _ := buildInternetwork(t)
	in.FailLink("worcester", "providence", true)
	res, err := in.Send(
		Address{Region: "boston", Building: ra.Gateways[0]},
		Address{Region: "providence", Building: rb.Gateways[0]},
		nil, sim.DefaultConfig())
	if err != nil {
		t.Fatalf("network partition must be a result, not an error: %v", err)
	}
	if res.Delivered || res.Failure != FailNoLinkPath {
		t.Errorf("partitioned send: delivered=%v failure=%v", res.Delivered, res.Failure)
	}
	if _, ok := res.EndToEndLatency(); ok {
		t.Error("undelivered send reported a latency")
	}
}

func TestEndToEndLatencyUndeliveredIsNaN(t *testing.T) {
	lat, ok := (SendResult{}).EndToEndLatency()
	if ok || !math.IsNaN(lat) {
		t.Errorf("EndToEndLatency on undelivered = %v, %v; want NaN, false", lat, ok)
	}
}

func TestDeadPrimaryGatewayFailover(t *testing.T) {
	// Regression for the flat predecessor's single-gateway fragility: a
	// dead primary gateway AP killed every leg through the region
	// silently. Here providence's primary gateway APs are down at the sim
	// level; delivery must fail over to the secondary gateway, and the
	// result must surface which gateway each leg used.
	in, ra, rb, _ := buildInternetwork(t)
	g0, g1 := rb.Gateways[0], rb.Gateways[1]
	simCfg := sim.DefaultConfig()
	for _, ap := range rb.Net.Mesh.APsInBuilding(g0) {
		simCfg.FailedSet = simCfg.FailedSet.Add(int(ap))
	}
	// Source sits on boston's gateway so the boston leg is a passthrough
	// and the FailedSet indices only ever run against providence's mesh.
	dstB := pickRouted(t, rb)
	res, err := in.Send(
		Address{Region: "boston", Building: ra.Gateways[0]},
		Address{Region: "providence", Building: dstB},
		nil, simCfg)
	if err != nil {
		t.Fatal(err)
	}
	var triedPrimary, usedSecondary bool
	for _, leg := range res.Legs {
		if leg.Region != "providence" {
			continue
		}
		if leg.Gateway == g0 {
			triedPrimary = true
			if leg.Delivered {
				t.Errorf("leg through dead gateway delivered: %+v", leg)
			}
		}
		if leg.Gateway == g1 && leg.Delivered {
			usedSecondary = true
		}
	}
	if !triedPrimary {
		t.Error("failover never tried the primary gateway first")
	}
	if !res.Delivered {
		t.Fatalf("failover did not deliver (%v): legs %+v", res.Failure, res.Legs)
	}
	if !usedSecondary {
		t.Errorf("delivered without the secondary gateway: %+v", res.Legs)
	}
	if res.GatewayFailovers == 0 {
		t.Error("GatewayFailovers not counted")
	}
}

func TestFailGatewaySkipsExplicitlyDeadGateways(t *testing.T) {
	in, ra, rb, _ := buildInternetwork(t)
	g0, g1 := rb.Gateways[0], rb.Gateways[1]
	if n := in.FailGateway("providence", g0, true); n != 1 {
		t.Fatalf("FailGateway changed %d", n)
	}
	if n := in.FailGateway("providence", g0, true); n != 0 {
		t.Errorf("re-failing changed %d", n)
	}
	if n := in.FailGateway("providence", 1<<20, true); n != 0 {
		t.Errorf("non-gateway building changed %d", n)
	}
	if n := in.FailGateway("nowhere", g0, true); n != 0 {
		t.Errorf("unknown region changed %d", n)
	}
	dstB := pickRouted(t, rb)
	res, err := in.Send(
		Address{Region: "boston", Building: ra.Gateways[0]},
		Address{Region: "providence", Building: dstB},
		nil, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, leg := range res.Legs {
		if leg.Region == "providence" && leg.Gateway == g0 {
			t.Errorf("explicitly failed gateway still used: %+v", leg)
		}
	}
	if res.Delivered && res.GatewayFailovers == 0 {
		t.Error("delivery through secondary not counted as failover")
	}
	// Restore: the primary is preferred again.
	if n := in.FailGateway("providence", g0, false); n != 1 {
		t.Fatalf("restore changed %d", n)
	}
	_ = g1
}

func TestTransitRerouteAroundDeadRegion(t *testing.T) {
	// Diamond a-b-d / a-c-d with the b path cheaper: the planned path runs
	// through b. Killing b's only gateway makes b untraversable, so the
	// send must ban b, re-plan at level 1, and deliver via c.
	in := New()
	for i, id := range []RegionID{"a", "b", "c", "d"} {
		if err := in.AddRegion(region(t, id, 240+int64(i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range []Link{
		{A: "a", B: "b", LatencySeconds: 0.01},
		{A: "b", B: "d", LatencySeconds: 0.01},
		{A: "a", B: "c", LatencySeconds: 0.02},
		{A: "c", B: "d", LatencySeconds: 0.02},
	} {
		if err := in.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	rb, _ := in.Region("b")
	in.FailGateway("b", rb.Gateways[0], true)

	ra, _ := in.Region("a")
	rd, _ := in.Region("d")
	dstB := pickRouted(t, rd)
	res, err := in.Send(
		Address{Region: "a", Building: ra.Gateways[0]},
		Address{Region: "d", Building: dstB},
		nil, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.PlannedPath[1] != "b" {
		t.Fatalf("planned path %v should run through b", res.PlannedPath)
	}
	if res.Reroutes == 0 {
		t.Errorf("no reroute recorded: %+v", res)
	}
	if !res.Delivered {
		t.Fatalf("reroute did not deliver (%v): legs %+v", res.Failure, res.Legs)
	}
	via := map[RegionID]bool{}
	for _, id := range res.RegionPath {
		via[id] = true
	}
	if !via["c"] || res.RegionPath[len(res.RegionPath)-1] != "d" {
		t.Errorf("rerouted path = %v, want via c to d", res.RegionPath)
	}
}

func TestLinkKindString(t *testing.T) {
	for k, want := range map[LinkKind]string{
		LinkSatellite: "satellite", LinkFiber: "fiber",
		LinkHFRadio: "hf-radio", LinkKind(9): "unknown",
	} {
		if k.String() != want {
			t.Errorf("String(%d) = %q", k, k.String())
		}
	}
}

func TestReasonStrings(t *testing.T) {
	for r, want := range map[LegReason]string{
		LegOK: "ok", LegPassthrough: "passthrough",
		LegPlanFailed: "plan-failed", LegMeshUndelivered: "mesh-undelivered",
		LegReason(9): "leg-reason(9)",
	} {
		if r.String() != want {
			t.Errorf("LegReason(%d) = %q, want %q", r, r.String(), want)
		}
	}
	for c, want := range map[FailCause]string{
		FailNone: "none", FailMeshUndelivered: "mesh-undelivered",
		FailNoLinkPath: "no-link-path", FailNoGatewayPath: "no-gateway-path",
		FailRerouteExhausted: "reroute-exhausted", FailCause(9): "fail-cause(9)",
	} {
		if c.String() != want {
			t.Errorf("FailCause(%d) = %q, want %q", c, c.String(), want)
		}
	}
}

func TestAccessorsAndStateBytes(t *testing.T) {
	in, ra, rb, _ := buildInternetwork(t)
	if in.Regions() != 3 {
		t.Errorf("Regions = %d", in.Regions())
	}
	if len(in.Links()) != 2 {
		t.Errorf("Links = %d", len(in.Links()))
	}
	if r, ok := in.Region("boston"); !ok || r != ra {
		t.Error("Region lookup failed")
	}
	if _, ok := in.Region("nope"); ok {
		t.Error("unknown region resolved")
	}
	if i, ok := in.Index("worcester"); !ok || i != 2 {
		t.Errorf("Index(worcester) = %d, %v", i, ok)
	}
	ids := in.RegionIDs()
	if !reflect.DeepEqual(ids, []RegionID{"boston", "providence", "worcester"}) {
		t.Errorf("RegionIDs = %v", ids)
	}

	// The hierarchy's state argument, in miniature: ordinary-AP state is a
	// few bytes and does not grow when regions are added; the flat
	// baseline carries every building in the federation.
	perAP := in.PerAPL1StateBytes("boston")
	if perAP <= 0 || perAP > 64 {
		t.Errorf("per-AP level-1 state = %d bytes", perAP)
	}
	if got := in.PerAPL1StateBytes("providence"); got != 4+8*len(rb.Gateways) {
		t.Errorf("providence per-AP state = %d", got)
	}
	if in.PerAPL1StateBytes("nope") != 0 {
		t.Error("unknown region has state")
	}
	gw := in.GatewayStateBytes()
	extra := region(t, "extra", 219, 1)
	if err := in.AddRegion(extra); err != nil {
		t.Fatal(err)
	}
	if err := in.AddLink(Link{A: "extra", B: "boston", Kind: LinkFiber}); err != nil {
		t.Fatal(err)
	}
	if in.PerAPL1StateBytes("boston") != perAP {
		t.Error("ordinary-AP state grew with the federation")
	}
	if in.GatewayStateBytes() <= gw {
		t.Error("gateway summary state did not grow with the federation")
	}
	if in.FlatPerAPStateBytes() <= in.GatewayStateBytes() {
		t.Errorf("flat baseline (%d) should dwarf the summary (%d)",
			in.FlatPerAPStateBytes(), in.GatewayStateBytes())
	}
}
