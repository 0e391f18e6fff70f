package experiments

import (
	"fmt"

	"citymesh/internal/fwd/parity"
)

// Parity runs the sim↔live differential suite (internal/fwd/parity): the
// same city, packet, and fault set through the discrete-event simulator
// and a hub of live agents, diffing the reached/forwarded/delivered AP
// sets. It returns an error when any scenario mismatches, so a CI step
// running `-experiment parity` fails the build on kernel drift.
func Parity() ([]parity.Result, error) {
	results, err := parity.RunAll(parity.Scenarios())
	if err != nil {
		return results, err
	}
	for _, r := range results {
		if !r.OK() {
			return results, fmt.Errorf(
				"experiments: parity broken in scenario %q: %d mismatches (first: %s)",
				r.Scenario.Name, len(r.Mismatches), r.Mismatches[0])
		}
	}
	return results, nil
}

// ParityText renders the suite as a table.
func ParityText(results []parity.Result) string {
	out := fmt.Sprintf("P1: sim vs live-agent forwarding parity\n%-12s %6s %7s %8s %9s %9s %10s %6s\n",
		"scenario", "APs", "failed", "reached", "forwarded", "delivered", "sim-delvd", "match")
	for _, r := range results {
		match := "OK"
		if !r.OK() {
			match = fmt.Sprintf("%d!!", len(r.Mismatches))
		}
		out += fmt.Sprintf("%-12s %6d %7d %8d %9d %9d %10v %6s\n",
			r.Scenario.Name, r.APs, r.Failed, r.Reached, r.Forwarded, r.Delivered,
			r.SimDelivered, match)
	}
	return out
}

// ParityCSV renders the suite as CSV, including the kernel's per-reason
// decision tally per scenario.
func ParityCSV(results []parity.Result) string {
	out := "scenario,aps,failed,reached,forwarded,delivered,sim_delivered,mismatches," +
		"dec_first_hop,dec_geocast,dec_in_conduit,dec_out_of_conduit,dec_ttl_expired,dec_bad_route\n"
	for _, r := range results {
		out += fmt.Sprintf("%s,%d,%d,%d,%d,%d,%v,%d,%d,%d,%d,%d,%d,%d\n",
			r.Scenario.Name, r.APs, r.Failed, r.Reached, r.Forwarded, r.Delivered,
			r.SimDelivered, len(r.Mismatches),
			r.Decisions.FirstHop, r.Decisions.Geocast, r.Decisions.InConduit,
			r.Decisions.OutOfConduit, r.Decisions.TTLExpired, r.Decisions.BadRoute)
	}
	return out
}
