package experiments

import (
	"strings"
	"testing"

	"citymesh/internal/core"
	"citymesh/internal/faults"
)

// TestResilienceLadderBeatsPlainSend is the acceptance scenario: at >=30%
// uniform AP failure on the downtown (gridtown) preset, the SendReliable
// ladder must deliver strictly more pairs than plain Send, and the winning
// rung must be recorded.
func TestResilienceLadderBeatsPlainSend(t *testing.T) {
	if testing.Short() {
		t.Skip("resilience sweep is slow")
	}
	rows, err := Resilience(ResilienceConfig{
		Cities: []string{"gridtown"},
		Mode:   faults.ModeUniform,
		Fracs:  []float64{0.3},
		Pairs:  25,
		Seed:   1,
		Scale:  0.35,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("want 1 row, got %d", len(rows))
	}
	r := rows[0]
	if r.Pairs == 0 {
		t.Fatal("no pairs were simulated")
	}
	t.Logf("pairs=%d plain=%.2f reliable=%.2f rungs=%v lostDead=%d",
		r.Pairs, r.PlainRate, r.ReliableRate, r.RungWins, r.LostToDeadAP)
	if r.ReliableRate <= r.PlainRate {
		t.Errorf("SendReliable rate %.2f must beat plain %.2f at 30%% uniform failure",
			r.ReliableRate, r.PlainRate)
	}
	// The winning rungs must be recorded and account for every delivery.
	total := 0
	for _, w := range r.RungWins {
		total += w
	}
	wantWins := int(r.ReliableRate*float64(r.Pairs) + 0.5)
	if total != wantWins {
		t.Errorf("rung wins %v sum to %d, want %d", r.RungWins, total, wantWins)
	}
	// Plain sends under failure must show dead-AP loss attribution.
	if r.PlainRate < 1 && r.LostToDeadAP == 0 {
		t.Error("expected LostToDeadAP diagnostics under 30% failure")
	}
}

// TestResilienceZeroFailureEquivalence: with nothing failed, both
// strategies deliver the same reachable pairs and the ladder never climbs
// past the direct rung.
func TestResilienceZeroFailureEquivalence(t *testing.T) {
	rows, err := Resilience(ResilienceConfig{
		Cities: []string{"gridtown"},
		Mode:   faults.ModeUniform,
		Fracs:  []float64{0},
		Pairs:  10,
		Seed:   2,
		Scale:  0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.PlainRate != r.ReliableRate {
		t.Errorf("zero failure: plain %.2f != reliable %.2f", r.PlainRate, r.ReliableRate)
	}
	for i, w := range r.RungWins {
		if core.Rung(i) != core.RungDirect && w > 0 {
			t.Errorf("zero failure should never need rung %v (wins %v)", core.Rung(i), r.RungWins)
		}
	}
}

// TestResilienceWaterlessFloodIsInapplicable: flooding a city with no mapped
// water is not a configuration error; the sweep reports an empty
// "inapplicable" row and goes on.
func TestResilienceWaterlessFloodIsInapplicable(t *testing.T) {
	rows, err := Resilience(ResilienceConfig{
		Cities: []string{"gridtown"},
		Mode:   faults.ModeFlood,
		Fracs:  []float64{0.1, 0.2},
		Pairs:  2,
		Seed:   1,
		Scale:  0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Pairs != 0 {
			t.Errorf("waterless flood row ran %d pairs", r.Pairs)
		}
	}
	if text := ResilienceText(rows); !strings.Contains(text, "(mode inapplicable to this city)") {
		t.Errorf("text does not mark the rows inapplicable:\n%s", text)
	}
}

func TestResilienceRejectsUnknownCity(t *testing.T) {
	_, err := Resilience(ResilienceConfig{Cities: []string{"atlantis"}})
	if err == nil {
		t.Fatal("unknown city must error")
	}
}

func TestResilienceRejectsUnknownMode(t *testing.T) {
	_, err := Resilience(ResilienceConfig{
		Cities: []string{"gridtown"},
		Mode:   faults.Mode("bogus"),
	})
	if err == nil {
		t.Fatal("unknown fault mode must error, not emit empty rows")
	}
}

func TestResilienceRenderers(t *testing.T) {
	rows := []ResilienceRow{{
		City: "gridtown", Mode: faults.ModeUniform, FailFrac: 0.3, Pairs: 10,
		PlainRate: 0.4, ReliableRate: 0.8,
		RungWins: [core.NumRungs]int{4, 2, 1, 1, 0},
	}}
	txt := ResilienceText(rows)
	for _, want := range []string{"gridtown", "uniform", "retry:2", "widen:1"} {
		if !strings.Contains(txt, want) {
			t.Errorf("text output missing %q:\n%s", want, txt)
		}
	}
	csv := ResilienceCSV(rows)
	if !strings.Contains(csv, "wins_flood") || !strings.Contains(csv, "0.8000") {
		t.Errorf("csv output malformed:\n%s", csv)
	}
	if got := len(strings.Split(strings.TrimSpace(csv), "\n")); got != 2 {
		t.Errorf("csv should have header + 1 row, got %d lines", got)
	}
}
