package experiments

import (
	"reflect"
	"strings"
	"testing"
)

// smallFederationConfig keeps the sweep cheap for tests while still
// exercising every arm: two sizes, healthy + half-links-down + dead
// primary gateway.
func smallFederationConfig() FederationConfig {
	cfg := DefaultFederationConfig()
	cfg.Sizes = []int{2, 6}
	cfg.LinkFailFracs = []float64{0, 0.5}
	cfg.Pairs = 4
	return cfg
}

func TestFederationSweepScaling(t *testing.T) {
	cfg := smallFederationConfig()
	rows, err := FederationSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// sizes × (fracs + gateway arm)
	if want := 2 * 3; len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
	byCell := map[[2]int]FederationRow{} // (cities, arm) for the healthy rows
	for _, r := range rows {
		if r.LinkFailFrac == 0 && !r.DeadPrimaryGW {
			byCell[[2]int{r.Cities, 0}] = r
		}
		if r.DeadPrimaryGW {
			byCell[[2]int{r.Cities, 1}] = r
		}
	}
	small, big := byCell[[2]int{2, 0}], byCell[[2]int{6, 0}]
	if small.Sends == 0 || big.Sends == 0 {
		t.Fatalf("missing healthy rows: %+v", rows)
	}
	// The hierarchy's claim: ordinary-AP state does not grow with the
	// federation; the flat baseline does.
	if small.PerAPStateBytes != big.PerAPStateBytes {
		t.Errorf("per-AP state grew: %d -> %d bytes", small.PerAPStateBytes, big.PerAPStateBytes)
	}
	if big.FlatPerAPStateBytes <= small.FlatPerAPStateBytes {
		t.Errorf("flat baseline did not grow: %d -> %d bytes",
			small.FlatPerAPStateBytes, big.FlatPerAPStateBytes)
	}
	if big.GatewayStateBytes <= small.GatewayStateBytes {
		t.Errorf("gateway summary did not grow: %d -> %d bytes",
			small.GatewayStateBytes, big.GatewayStateBytes)
	}
	// Healthy mesh, lossless simulator: everything delivers.
	for _, r := range []FederationRow{small, big} {
		if r.Partitioned != 0 {
			t.Errorf("healthy %d-city federation partitioned %d sends", r.Cities, r.Partitioned)
		}
		if r.DeliveryRate < 1 {
			t.Errorf("healthy %d-city delivery = %.3f, want 1", r.Cities, r.DeliveryRate)
		}
		if r.HierBitsP90 <= 0 || r.FlatBitsP90 <= 0 {
			t.Errorf("%d-city header bits: hier p90 %.0f, flat p90 %.0f",
				r.Cities, r.HierBitsP90, r.FlatBitsP90)
		}
	}
	// The headline scaling claim: the flat source route grows with the
	// federation strictly faster than the hierarchical header.
	hierGrowth := big.HierBitsP90 / small.HierBitsP90
	flatGrowth := big.FlatBitsP90 / small.FlatBitsP90
	if flatGrowth <= hierGrowth {
		t.Errorf("flat header growth %.2fx not above hier growth %.2fx", flatGrowth, hierGrowth)
	}
	// The dead-primary-gateway arm must deliver through the failover.
	gw := byCell[[2]int{6, 1}]
	if gw.DeliveryRate < 1 {
		t.Errorf("dead-primary-gateway delivery = %.3f, want 1 via failover", gw.DeliveryRate)
	}
	if gw.Delivered > 0 && gw.GatewayFailovers == 0 {
		t.Error("dead-primary-gateway arm recorded no failovers")
	}
	// The growth summary line renders.
	text := FederationText(rows)
	if !strings.Contains(text, "growth 2 -> 6 cities") {
		t.Errorf("no growth line in:\n%s", text)
	}
}

func TestFederationParallelMatchesSerial(t *testing.T) {
	cfg := smallFederationConfig()
	cfg.Parallelism = 1
	serial, err := FederationSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallelism = 8
	par, err := FederationSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("parallel rows differ from serial:\n%+v\nvs\n%+v", serial, par)
	}
	if FederationText(serial) != FederationText(par) || FederationCSV(serial) != FederationCSV(par) {
		t.Error("rendered output differs between par=1 and par=8")
	}
}

// TestFederationZeroFieldsTakeTheDefaults: FederationSweep fills an empty
// LinkFailFracs and a zero Seed from DefaultFederationConfig, so leaving
// them out runs the same sweep as writing the defaults in.
func TestFederationZeroFieldsTakeTheDefaults(t *testing.T) {
	d := DefaultFederationConfig()
	bare := FederationConfig{Sizes: []int{2, 3}, Pairs: 2}
	full := bare
	full.LinkFailFracs = d.LinkFailFracs
	full.Seed = d.Seed
	got, err := FederationSweep(bare)
	if err != nil {
		t.Fatal(err)
	}
	want, err := FederationSweep(full)
	if err != nil {
		t.Fatal(err)
	}
	if FederationText(got) != FederationText(want) || FederationCSV(got) != FederationCSV(want) {
		t.Errorf("zero fields render\n%s\nwritten-out defaults render\n%s", FederationCSV(got), FederationCSV(want))
	}
}

func TestFederationSizesUpTo(t *testing.T) {
	if got := federationSizesUpTo(10); !reflect.DeepEqual(got, []int{2, 5, 10}) {
		t.Errorf("sizes(10) = %v", got)
	}
	if got := federationSizesUpTo(7); !reflect.DeepEqual(got, []int{2, 5, 7}) {
		t.Errorf("sizes(7) = %v", got)
	}
	if got := federationSizesUpTo(2); !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("sizes(2) = %v", got)
	}
}

func TestFederationRejectsBadConfig(t *testing.T) {
	cfg := smallFederationConfig()
	cfg.Sizes = []int{1}
	if _, err := FederationSweep(cfg); err == nil {
		t.Error("size 1 accepted")
	}
}

func TestFederationRegistry(t *testing.T) {
	res, err := RunByName("federation", RunConfig{
		FederationCities: 3, FederationTopology: "ring",
		LinkFailFracs: []float64{0}, Pairs: 2, Parallelism: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "ring") {
		t.Errorf("topology missing from text:\n%s", res.Text)
	}
	if !strings.HasPrefix(res.CSV, "cities,topology,") {
		t.Errorf("CSV header wrong:\n%s", res.CSV)
	}
	if _, err := RunByName("federation", RunConfig{FederationTopology: "nope"}); err == nil {
		t.Error("bad topology accepted")
	}
}
