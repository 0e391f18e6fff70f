// Quickstart: build a synthetic city, plan a building route, and deliver a
// message through the simulated AP mesh with the CityMesh conduit policy —
// then deliver it again with the resilient escalation ladder, all through
// the root package facade.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"citymesh"
	"citymesh/internal/runner"
)

func main() {
	// Build a CityMesh deployment over the "boston" preset with the
	// paper's parameters: 50 m transmission range, 1 AP per 200 m² of
	// building footprint, conduit width 50 m, cubed-distance edge weights.
	net, err := citymesh.FromPreset("boston", citymesh.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("city: %d buildings, %d APs, %d building-graph edges\n",
		net.City.NumBuildings(), net.Mesh.NumAPs(), net.Graph.NumEdges())

	// Collect reachable candidate pairs. Deliverability is high but not
	// total (see EXPERIMENTS.md): some conduits have a choke point where
	// the realized AP placement leaves a >range gap inside the band.
	pairs, err := net.RandomPairs(42, 500)
	if err != nil {
		log.Fatal(err)
	}
	var reachable [][2]int
	for _, p := range pairs {
		if net.Reachable(p[0], p[1]) {
			reachable = append(reachable, p)
		}
		if len(reachable) == 32 {
			break
		}
	}
	if len(reachable) == 0 {
		log.Fatal("no reachable pair; try a different seed")
	}

	// Probe the candidates concurrently — Network.Send is safe to call from
	// many goroutines against one Network — and keep the lowest-indexed
	// delivery, so the answer is identical to probing them one by one.
	type probe struct {
		res citymesh.SendResult
		err error
	}
	probes := runner.Map(0, len(reachable), func(i int) probe {
		var pr probe
		pr.res, pr.err = net.Send(reachable[i][0], reachable[i][1],
			[]byte("are you safe? reply via my postbox"), citymesh.DefaultSimConfig())
		return pr
	})
	var res citymesh.SendResult
	var src, dst, attempts int
	for i, pr := range probes {
		if pr.err != nil {
			continue
		}
		attempts++
		if pr.res.Sim.Delivered {
			res, src, dst = pr.res, reachable[i][0], reachable[i][1]
			break
		}
	}
	if !res.Sim.Delivered {
		log.Fatal("no pair delivered; try a different seed")
	}

	path, _ := net.BuildingPath(src, dst)
	fmt.Printf("route %d -> %d (attempt %d): %d buildings compressed to %d waypoints\n",
		src, dst, attempts, len(path), len(res.Route.Waypoints))
	fmt.Printf("header: %d bits (compressed route: %d bits)\n",
		res.Packet.Header.HeaderBits(), res.Packet.Header.RouteBits())
	fmt.Printf("delivered: %v in %.0f ms after %d broadcasts",
		res.Sim.Delivered, res.Sim.DeliveryTime*1000, res.Sim.Broadcasts)
	if res.IdealTransmissions > 0 {
		fmt.Printf(" (overhead %.1fx vs ideal %d unicasts)", res.Overhead(), res.IdealTransmissions)
	}
	fmt.Println()

	// Disasters are exactly when a single attempt is not good enough:
	// SendReliable escalates retry → widened conduit → multipath → scoped
	// flood, and a HealthMap lets later sends plan around learned damage.
	rc := citymesh.DefaultReliableConfig()
	rc.Seed = 42
	rc.Health = citymesh.NewHealthMap(citymesh.DefaultHealthConfig())
	rel, err := net.SendReliable(src, dst, []byte("second copy, via the ladder"),
		citymesh.DefaultSimConfig(), rc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resilient: delivered=%v on rung %v after %d attempt(s), %d total broadcasts\n",
		rel.Delivered, rel.Rung, len(rel.Attempts), rel.TotalBroadcasts)
}
