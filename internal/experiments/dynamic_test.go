package experiments

import (
	"strings"
	"testing"
)

// The dynamic-disaster experiments join the PR-4 guarantee: byte-identical
// rendered output at any parallelism.

func TestDataMuleParallelMatchesSerial(t *testing.T) {
	run := func(par int) ([]DataMuleRow, error) {
		return DataMule(DataMuleConfig{Scale: 0.3, Pairs: 4, Seed: 1, Parallelism: par})
	}
	serial, err := run(1)
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	parallel, err := run(8)
	if err != nil {
		t.Fatalf("parallel run: %v", err)
	}
	if got, want := DataMuleText(parallel), DataMuleText(serial); got != want {
		t.Errorf("Text() differs between par=1 and par=8:\n--- serial ---\n%s--- parallel ---\n%s", want, got)
	}
	if got, want := DataMuleCSV(parallel), DataMuleCSV(serial); got != want {
		t.Errorf("CSV() differs between par=1 and par=8:\n--- serial ---\n%s--- parallel ---\n%s", want, got)
	}
}

// TestDataMuleHealsWhatStoreAndHealCannot is the experiment's thesis: on a
// river-partitioned city with no recovery coming, store-and-heal alone
// delivers nothing, and the bus fleet delivers a strict majority.
func TestDataMuleHealsWhatStoreAndHealCannot(t *testing.T) {
	rows, err := DataMule(DataMuleConfig{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2 arms", len(rows))
	}
	base, mule := rows[0], rows[1]
	if base.Arm != "store-and-heal" || mule.Arm != "store-and-heal+mule" {
		t.Fatalf("unexpected arms %q, %q", base.Arm, mule.Arm)
	}
	if base.Delivered != 0 {
		t.Errorf("store-and-heal delivered %d cross-river pairs with no recovery; the banks must be severed", base.Delivered)
	}
	if mule.Delivered*2 <= mule.Pairs {
		t.Errorf("mule delivered only %d of %d pairs; the shuttle should heal a majority", mule.Delivered, mule.Pairs)
	}
	if mule.TimeToDeliverP50 <= 1 {
		t.Errorf("mule time-to-deliver p50 %.2fs is implausibly fast for a physical carry across the river", mule.TimeToDeliverP50)
	}
}

// TestFloodFrontDegradesTowardStatic: the dynamic arm starts healthier
// than the static snapshot and its down-fraction grows monotonically until
// it matches the snapshot's magnitude.
func TestFloodFrontDegradesTowardStatic(t *testing.T) {
	rows, err := FloodFrontStudy(FloodFrontStudyConfig{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	byArm := map[string][]FloodFrontRow{}
	for _, r := range rows {
		byArm[r.Arm] = append(byArm[r.Arm], r)
	}
	dyn, stat := byArm["floodfront"], byArm["static"]
	if len(dyn) == 0 || len(stat) != len(dyn) {
		t.Fatalf("arm rows: dynamic %d, static %d", len(dyn), len(stat))
	}
	if dyn[0].DownFrac != 0 {
		t.Errorf("at t=0 the front has not started, down fraction %.3f", dyn[0].DownFrac)
	}
	if dyn[0].DeliveryRate <= stat[0].DeliveryRate {
		t.Errorf("before the front arrives the dynamic arm (%.2f) should out-deliver the static snapshot (%.2f)",
			dyn[0].DeliveryRate, stat[0].DeliveryRate)
	}
	for i := 1; i < len(dyn); i++ {
		if dyn[i].DownFrac < dyn[i-1].DownFrac {
			t.Errorf("flood front receded: down %.3f at t=%.0f after %.3f at t=%.0f",
				dyn[i].DownFrac, dyn[i].TimeS, dyn[i-1].DownFrac, dyn[i-1].TimeS)
		}
	}
	last := len(dyn) - 1
	if dyn[last].DownFrac != stat[last].DownFrac {
		t.Errorf("final front magnitude %.3f does not match the static snapshot %.3f",
			dyn[last].DownFrac, stat[last].DownFrac)
	}
	for _, r := range stat {
		if r.DownFrac != stat[0].DownFrac {
			t.Errorf("static snapshot moved: %.3f at t=%.0f", r.DownFrac, r.TimeS)
		}
	}
}

func TestDynamicExperimentsRegistered(t *testing.T) {
	for _, name := range []string{"datamule", "floodfront"} {
		if _, ok := Lookup(name); !ok {
			t.Errorf("experiment %q not registered", name)
		}
	}
	// The registry smoke path: datamule through RunByName with the shared
	// knobs, checking both rendered forms exist.
	res, err := RunByName("datamule", RunConfig{Scale: 0.3, Pairs: 3, Seed: 1, Parallelism: 2})
	if err != nil {
		t.Fatalf("RunByName(datamule): %v", err)
	}
	if !strings.Contains(res.Text, "Data mule") {
		t.Errorf("Text missing header:\n%s", res.Text)
	}
	if !strings.HasPrefix(res.CSV, "arm,") {
		t.Errorf("CSV missing header row:\n%s", res.CSV)
	}
}
