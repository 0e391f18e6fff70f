package trafficgen

import (
	"reflect"
	"testing"

	"citymesh/internal/citygen"
	"citymesh/internal/core"
	"citymesh/internal/geo"
	"citymesh/internal/sim"
)

// testNetwork shrinks the gridtown preset to a handful of blocks with no
// districts or water, keeping each Run to a fraction of a second.
func testNetwork(t *testing.T) *core.Network {
	t.Helper()
	spec, ok := citygen.Preset("gridtown")
	if !ok {
		t.Fatal("gridtown preset missing")
	}
	spec.Width, spec.Height = 260, 260
	spec.Rivers, spec.Parks, spec.Highways = nil, nil, nil
	spec.DowntownRect, spec.CampusRect = geo.Rect{}, geo.Rect{}
	n, err := core.FromSpec(spec, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func smallConfig() Config {
	return Config{
		Users: 20, APs: 4, Ticks: 16,
		FlashMultiplier: 4,
		Seed:            7,
	}
}

func TestRunDeterministic(t *testing.T) {
	n := testNetwork(t)
	a, err := Run(n, sim.DefaultConfig(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(n, sim.DefaultConfig(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs with the same seed differ:\n a=%+v\n b=%+v", a, b)
	}
}

func TestRunAccountingAndFlow(t *testing.T) {
	n := testNetwork(t)
	rep, err := Run(n, sim.DefaultConfig(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.AccountingError(); err != nil {
		t.Fatal(err)
	}
	if rep.Offered == 0 || rep.Delivered == 0 {
		t.Fatalf("no traffic flowed: %+v", rep)
	}
	if rep.Fetched == 0 {
		t.Fatalf("recipients never fetched anything: %+v", rep)
	}
	if rep.Residual != 0 {
		t.Fatalf("flush left %d messages queued", rep.Residual)
	}
}

func TestFlashCrowdRaisesOfferedLoad(t *testing.T) {
	n := testNetwork(t)
	quiet := smallConfig()
	quiet.FlashMultiplier = 1
	crowd := smallConfig()
	crowd.FlashMultiplier = 8
	q, err := Run(n, sim.DefaultConfig(), quiet)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Run(n, sim.DefaultConfig(), crowd)
	if err != nil {
		t.Fatal(err)
	}
	if c.Offered <= q.Offered {
		t.Fatalf("flash crowd did not raise offered load: quiet %d, crowd %d", q.Offered, c.Offered)
	}
}

func TestDeadNetworkChargesNetworkExhausted(t *testing.T) {
	n := testNetwork(t)
	simCfg := sim.DefaultConfig()
	for _, ap := range n.Mesh.APs {
		simCfg.FailedSet = simCfg.FailedSet.Add(ap.ID)
	}
	cfg := smallConfig()
	cfg.Ticks = 8
	rep, err := Run(n, simCfg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DroppedNetworkExhausted == 0 {
		t.Fatalf("fully dead mesh produced no network-exhausted drops: %+v", rep)
	}
	// Same-AP messages still deliver locally; nothing crosses the mesh.
	if rep.Broadcasts != 0 && rep.Delivered > rep.Accepted-rep.DroppedNetworkExhausted {
		t.Fatalf("remote deliveries on a dead mesh: %+v", rep)
	}
	if err := rep.AccountingError(); err != nil {
		t.Fatal(err)
	}
}
