package parity

import (
	"testing"

	"citymesh/internal/faults"
)

// TestParityScenarios is the PR's core differential: the simulator and
// the live agent runtime must agree AP-by-AP on who hears, who forwards,
// and who delivers, across the standard scenario suite.
func TestParityScenarios(t *testing.T) {
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			r, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if !r.OK() {
				for _, m := range r.Mismatches {
					t.Error(m)
				}
				t.Fatalf("%d mismatches across %d APs", len(r.Mismatches), r.APs)
			}
			if r.Reached < 2 {
				t.Fatalf("degenerate scenario: only %d APs reached", r.Reached)
			}
			if sc.FaultMode == "" {
				// Fault-free scenarios must exercise the delivery path;
				// under 30% failures non-delivery is a legitimate outcome
				// that the two worlds must merely agree on.
				if !r.SimDelivered {
					t.Fatalf("fault-free scenario must deliver")
				}
				if r.Delivered == 0 {
					t.Fatalf("no AP delivered — scenario exercises nothing")
				}
			}
			if r.Decisions.Total() == 0 {
				t.Fatalf("kernel decision tally empty")
			}
			t.Logf("%s: %d APs (%d failed), reached=%d forwarded=%d delivered=%d decisions=%+v",
				sc.Name, r.APs, r.Failed, r.Reached, r.Forwarded, r.Delivered, r.Decisions)
		})
	}
}

// TestParityRejectsChurn pins the documented boundary: time-varying
// schedules are not parity-comparable and must be refused, not silently
// mis-compared.
func TestParityRejectsChurn(t *testing.T) {
	_, err := Run(Scenario{Name: "churn", Seed: 3, FaultMode: faults.ModeChurn, FaultFrac: 0.2})
	if err == nil {
		t.Fatal("churn scenario must be rejected")
	}
}

// TestGeocastParityDeliversOutsideDstBuilding asserts the geocast
// scenario actually exercises the area-delivery path: more APs deliver
// than the destination building hosts.
func TestGeocastParityDeliversOutsideDstBuilding(t *testing.T) {
	var geo Scenario
	for _, sc := range Scenarios() {
		if sc.Geocast {
			geo = sc
		}
	}
	if !geo.Geocast {
		t.Fatal("no geocast scenario in suite")
	}
	r, err := Run(geo)
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK() {
		t.Fatalf("geocast parity broken: %v", r.Mismatches)
	}
	if r.Delivered < 2 {
		t.Fatalf("geocast delivered to %d APs; want the whole disc, not just the anchor", r.Delivered)
	}
}
