package experiments

import (
	"strings"
	"testing"
)

// findByz picks the row for (behavior, frac, defended) or fails the test.
func findByz(t *testing.T, rows []ByzantineRow, behavior string, frac float64, defended bool) ByzantineRow {
	t.Helper()
	for _, r := range rows {
		if r.Behavior == behavior && r.Frac == frac && r.Defended == defended {
			return r
		}
	}
	t.Fatalf("no row for %s frac=%.2f defended=%v", behavior, frac, defended)
	return ByzantineRow{}
}

// TestByzantineDefenseRecoversGrayholeLoss is the experiment's acceptance
// bar: at 20% grayhole APs on gridtown, the defended arm recovers at least
// 80% of the delivery the undefended arm lost, and no cell charges an
// invariant violation to an honest AP. It runs the grayhole cells at
// fractions 0 and 0.2 only, with the adversary seeded as the first behavior
// of a sweep.
func TestByzantineDefenseRecoversGrayholeLoss(t *testing.T) {
	cfg, n, allPairs, err := byzantineSetup(ByzantineConfig{Scale: 0.35, Pairs: 12, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	var rows []ByzantineRow
	for _, frac := range []float64{0, 0.2} {
		cell, err := byzantineArms(n, cfg, allPairs, 0, "grayhole", frac)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, cell...)
	}
	for _, r := range rows {
		if r.HonestViolations != 0 {
			t.Errorf("honest violations in %s frac=%.2f defended=%v: %d",
				r.Behavior, r.Frac, r.Defended, r.HonestViolations)
		}
	}
	offClean := findByz(t, rows, "grayhole", 0, false)
	offHit := findByz(t, rows, "grayhole", 0.2, false)
	onHit := findByz(t, rows, "grayhole", 0.2, true)
	loss := offClean.DeliveryRate - offHit.DeliveryRate
	if loss <= 0 {
		t.Fatalf("20%% grayholes cost nothing (%.2f -> %.2f); the adversary is inert",
			offClean.DeliveryRate, offHit.DeliveryRate)
	}
	if offHit.GrayholeDrops == 0 {
		t.Error("no grayhole drops observed in the undefended compromised cell")
	}
	recovered := onHit.DeliveryRate - offHit.DeliveryRate
	if recovered < 0.8*loss {
		t.Errorf("defenses recovered %.2f of a %.2f delivery loss (%.0f%%); want >= 80%%",
			recovered, loss, 100*recovered/loss)
	}
}

// TestByzantineLiveLegAttributesDrops: the live agent sees every hostile
// frame class land in exactly one per-cause counter, with no panics.
func TestByzantineLiveLegAttributesDrops(t *testing.T) {
	_, n, _, err := byzantineSetup(ByzantineConfig{Scale: 0.25, Pairs: 2})
	if err != nil {
		t.Fatal(err)
	}
	l := byzantineLive(n)
	if l.PanicsRecovered != 0 {
		t.Errorf("live agent recovered %d panics", l.PanicsRecovered)
	}
	if l.DroppedReplayed != 20 {
		t.Errorf("DroppedReplayed = %d, want 20 (every replay attributed)", l.DroppedReplayed)
	}
	if l.DroppedTampered != 15 {
		t.Errorf("DroppedTampered = %d, want 15 (TTL-inflated + bad-conduit)", l.DroppedTampered)
	}
	if l.DroppedMalformed != 5 {
		t.Errorf("DroppedMalformed = %d, want 5", l.DroppedMalformed)
	}
	if l.DroppedRateLimited == 0 {
		t.Error("the frozen-clock storm should trip the per-source limiter")
	}
	accounted := l.Received + l.DroppedReplayed + l.DroppedTampered +
		l.DroppedMalformed + l.DroppedRateLimited
	if accounted != l.FramesSent {
		t.Errorf("frames accounted %d of %d sent; every frame lands in exactly one counter",
			accounted, l.FramesSent)
	}
}

func TestByzantineRegistered(t *testing.T) {
	if _, ok := Lookup("byzantine"); !ok {
		t.Fatal("experiment \"byzantine\" not registered")
	}
	res, err := RunByName("byzantine", RunConfig{Scale: 0.25, Pairs: 2, Seed: 1, Parallelism: 4})
	if err != nil {
		t.Fatalf("RunByName(byzantine): %v", err)
	}
	if !strings.Contains(res.Text, "Byzantine adversaries") {
		t.Errorf("Text missing header:\n%s", res.Text)
	}
	if !strings.HasPrefix(res.CSV, "behavior,") {
		t.Errorf("CSV missing header row:\n%s", res.CSV)
	}
}
