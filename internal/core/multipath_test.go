package core

import (
	"fmt"
	"testing"

	"citymesh/internal/citygen"
	"citymesh/internal/sim"
)

func TestPlanDiverseRoutes(t *testing.T) {
	n := smallNetwork(t, 301)
	found := false
	pairs, err := n.RandomPairs(1, 200)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		base, err := n.BuildingPath(p[0], p[1])
		if err != nil || len(base) < 6 {
			continue
		}
		_, routes, err := n.diverseRoutes(p[0], p[1], 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(routes) == 0 {
			t.Fatal("no routes")
		}
		for _, r := range routes {
			if r.Src() != p[0] || r.Dst() != p[1] {
				t.Fatalf("route endpoints %d-%d != pair %v", r.Src(), r.Dst(), p)
			}
			if r.Width != n.Cfg.ConduitWidth {
				t.Fatalf("route width %v", r.Width)
			}
		}
		if len(routes) >= 2 {
			found = true
			break
		}
	}
	if !found {
		t.Error("never produced 2+ diverse routes")
	}
	if _, _, err := n.diverseRoutes(0, 1<<20, 2, nil); err == nil {
		t.Error("out-of-range destination should error")
	}
}

func TestMultipathSendDeliversAndSumsCost(t *testing.T) {
	n := smallNetwork(t, 302)
	pairs, err := n.RandomPairs(2, 200)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if !n.Reachable(p[0], p[1]) {
			continue
		}
		res, err := n.MultipathSend(p[0], p[1], []byte("x"), 2, sim.DefaultConfig(), nil)
		if err != nil {
			continue
		}
		if len(res.Routes) == 0 || len(res.Results) != len(res.Routes) {
			t.Fatalf("routes %d results %d", len(res.Routes), len(res.Results))
		}
		sum := 0
		anyDelivered := false
		for _, r := range res.Results {
			sum += r.Broadcasts
			anyDelivered = anyDelivered || r.Delivered
		}
		if sum != res.TotalBroadcasts {
			t.Fatalf("TotalBroadcasts %d != sum %d", res.TotalBroadcasts, sum)
		}
		if anyDelivered != res.Delivered {
			t.Fatal("Delivered flag inconsistent with per-route results")
		}
		// Message IDs must be distinct so copies propagate independently.
		if len(res.Results) >= 2 {
			return
		}
	}
	t.Skip("no multi-route pair exercised")
}

func TestMultipathSendUnroutable(t *testing.T) {
	n := smallNetwork(t, 303)
	// Find a disconnected pair in the building graph, if any.
	pairs, err := n.RandomPairs(3, 300)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if _, err := n.BuildingPath(p[0], p[1]); err != nil {
			if _, err := n.MultipathSend(p[0], p[1], nil, 2, sim.DefaultConfig(), nil); err == nil {
				t.Error("unroutable pair should error")
			}
			return
		}
	}
	t.Skip("city fully connected; nothing to test")
}

func TestSendResultOverheadEdgeCases(t *testing.T) {
	if (SendResult{IdealTransmissions: 0}).Overhead() != 0 {
		t.Error("zero ideal should give zero overhead")
	}
	if (SendResult{IdealTransmissions: -1}).Overhead() != 0 {
		t.Error("unknown ideal should give zero overhead")
	}
	r := SendResult{IdealTransmissions: 2, Sim: sim.Result{Broadcasts: 26}}
	if r.Overhead() != 13 {
		t.Errorf("overhead = %v", r.Overhead())
	}
}

func TestFromSpecInvalid(t *testing.T) {
	if _, err := FromSpec(citygen.Spec{}, DefaultConfig()); err == nil {
		t.Error("invalid spec should error")
	}
}

// TestMultipathSendSelfPair: a degenerate src==dst send plans the trivial
// single-waypoint route and still reports delivery.
func TestMultipathSendSelfPair(t *testing.T) {
	n := smallNetwork(t, 304)
	res, err := n.MultipathSend(3, 3, []byte("x"), 2, sim.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Routes) != 1 || len(res.Routes[0].Waypoints) != 1 || res.Routes[0].Waypoints[0] != 3 {
		t.Fatalf("self pair routes = %+v, want one trivial route", res.Routes)
	}
	if !res.Delivered {
		t.Error("self pair should deliver")
	}
}

// TestMultipathSendNonPositiveK: k<=0 clamps to a single route rather than
// erroring or sending nothing.
func TestMultipathSendNonPositiveK(t *testing.T) {
	n := smallNetwork(t, 304)
	for _, k := range []int{0, -3} {
		res, err := n.MultipathSend(0, 1, nil, k, sim.DefaultConfig(), nil)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if len(res.Routes) != 1 {
			t.Fatalf("k=%d planned %d routes, want 1", k, len(res.Routes))
		}
	}
}

// TestMultipathSendKExceedsAvailable: asking for more diversity than the
// graph offers returns the distinct paths that exist — deduplicated, never
// padded with repeats. (Dedup is at building-path level; two distinct paths
// may still compress to the same conduit skeleton.)
func TestMultipathSendKExceedsAvailable(t *testing.T) {
	n := smallNetwork(t, 304)
	res, err := n.MultipathSend(0, 1, nil, 50, sim.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Routes) == 0 || len(res.Routes) > 50 {
		t.Fatalf("k=50 planned %d routes", len(res.Routes))
	}
	if len(res.Paths) != len(res.Routes) {
		t.Fatalf("paths %d != routes %d", len(res.Paths), len(res.Routes))
	}
	seen := map[string]bool{}
	for _, p := range res.Paths {
		key := fmt.Sprint(p)
		if seen[key] {
			t.Fatalf("duplicate path %v among %d", p, len(res.Paths))
		}
		seen[key] = true
	}
	if len(res.Results) != len(res.Routes) {
		t.Fatalf("results %d != routes %d", len(res.Results), len(res.Routes))
	}
}
