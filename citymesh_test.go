package citymesh_test

import (
	"testing"

	"citymesh"
	"citymesh/internal/citygen"
)

func TestPublicAPIQuickstart(t *testing.T) {
	spec := citygen.SmallTestSpec(7)
	net, err := citymesh.FromSpec(spec, citymesh.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := net.RandomPairs(1, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if !net.Reachable(p[0], p[1]) {
			continue
		}
		res, err := net.Send(p[0], p[1], []byte("hello"), citymesh.DefaultSimConfig())
		if err != nil {
			continue
		}
		if res.Sim.Delivered {
			return // one delivered message is enough for the smoke test
		}
	}
	t.Fatal("no message delivered through the public API")
}

// TestPublicAPIResilientDelivery exercises the resilient-delivery facade:
// the escalation ladder, the route-health memory, and store-and-heal, all
// through the root package without importing internal/.
func TestPublicAPIResilientDelivery(t *testing.T) {
	spec := citygen.SmallTestSpec(7)
	net, err := citymesh.FromSpec(spec, citymesh.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := net.RandomPairs(1, 50)
	if err != nil {
		t.Fatal(err)
	}

	rc := citymesh.DefaultReliableConfig()
	rc.Seed = 1
	rc.Health = citymesh.NewHealthMap(citymesh.DefaultHealthConfig())
	if err := rc.Validate(); err != nil {
		t.Fatalf("DefaultReliableConfig().Validate() = %v", err)
	}

	delivered := false
	for _, p := range pairs {
		if !net.Reachable(p[0], p[1]) {
			continue
		}
		res, err := net.SendReliable(p[0], p[1], []byte("are you safe?"), citymesh.DefaultSimConfig(), rc)
		if err != nil {
			continue
		}
		if res.Delivered {
			delivered = true
			if res.Rung < citymesh.RungDirect || res.Rung >= citymesh.Rung(citymesh.NumRungs) {
				t.Errorf("winning rung %v out of range", res.Rung)
			}
			break
		}
	}
	if !delivered {
		t.Fatal("no message delivered through the SendReliable facade")
	}

	// The eventual path must at least run and report a coherent outcome.
	ec := citymesh.DefaultEventualConfig()
	for _, p := range pairs {
		if !net.Reachable(p[0], p[1]) {
			continue
		}
		res, err := net.SendEventually(p[0], p[1], []byte("ping"), citymesh.DefaultSimConfig(), rc, ec)
		if err != nil {
			continue
		}
		if !res.Delivered && !res.Parked {
			t.Errorf("SendEventually neither delivered nor parked: %+v", res)
		}
		break
	}
}

func TestPresetNames(t *testing.T) {
	names := citymesh.PresetNames()
	if len(names) < 6 {
		t.Fatalf("presets = %v", names)
	}
	if _, err := citymesh.FromPreset("definitely-not-a-city", citymesh.DefaultConfig()); err == nil {
		t.Error("unknown preset should error")
	}
}

func TestPublicAPIFederation(t *testing.T) {
	fed, err := citymesh.GenerateFederation(citymesh.FederationSpec{Cities: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	in := citymesh.NewInternetwork()
	for _, fc := range fed.Cities {
		net, err := citymesh.FromSpec(fc.Spec, citymesh.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := in.AddRegion(&citymesh.Region{
			ID: citymesh.RegionID(fc.Name), Net: net, Gateways: []int{0}, Pos: fc.PosKm,
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range fed.Links {
		if err := in.AddLink(citymesh.InterLink{
			A:              citymesh.RegionID(fed.Cities[l.A].Name),
			B:              citymesh.RegionID(fed.Cities[l.B].Name),
			LatencySeconds: l.LatencyS, BandwidthMbps: l.BandwidthMbps,
		}); err != nil {
			t.Fatal(err)
		}
	}
	path, _, err := in.RegionPath(citymesh.RegionID(fed.Cities[0].Name), citymesh.RegionID(fed.Cities[1].Name))
	if err != nil || len(path) != 2 {
		t.Fatalf("region path = %v, %v", path, err)
	}
	res, err := in.Send(
		citymesh.InterAddress{Region: path[0], Building: 0},
		citymesh.InterAddress{Region: path[1], Building: 0},
		[]byte("hi"), citymesh.DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.EndToEndLatency(); ok != res.Delivered {
		t.Errorf("latency ok=%v disagrees with Delivered=%v", ok, res.Delivered)
	}
}
