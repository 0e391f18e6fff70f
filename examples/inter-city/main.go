// Inter-city DFN: §1 asks "how do we form an inter-network of DFNs across
// regions?" and what role satellite links should play between population
// centers. This example stands up three city-scale DFNs, peers them through
// gateway buildings — one pair over surviving fiber, one over a satellite
// bounce — and delivers a message end-to-end: conduit routing inside the
// source city, two link hops through a transit region, conduit routing
// inside the destination city. It then fails a link and shows the
// region-level reroute.
//
//	go run ./examples/inter-city
package main

import (
	"fmt"
	"log"

	"citymesh"
	"citymesh/internal/internetwork"
	"citymesh/internal/sim"
)

func main() {
	in := internetwork.New()

	// Three regions. Gateways: a building in each city's main island.
	mk := func(id internetwork.RegionID, preset string) *internetwork.Region {
		net, err := citymesh.FromPreset(preset, citymesh.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		r := &internetwork.Region{ID: id, Net: net, Gateways: pickGateways(net)}
		if err := in.AddRegion(r); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("region %-10s: %d buildings, %d APs, gateways %v\n",
			id, net.City.NumBuildings(), net.Mesh.NumAPs(), r.Gateways)
		return r
	}
	boston := mk("boston", "gridtown")
	worcester := mk("worcester", "cambridge")
	providence := mk("providence", "chicago")
	_ = worcester

	must(in.AddLink(internetwork.Link{A: "boston", B: "worcester", Kind: internetwork.LinkFiber}))
	must(in.AddLink(internetwork.Link{A: "worcester", B: "providence", Kind: internetwork.LinkSatellite}))

	path, latency, err := in.RegionPath("boston", "providence")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("region route: %v (link latency %.0f ms)\n", path, latency*1000)

	// Pick endpoints that can reach their gateways; retry a few source and
	// destination combinations since per-leg deliverability is below 1.
	var res internetwork.SendResult
	for attempt := 0; attempt < 8; attempt++ {
		src := pickReachable(boston, int64(20+attempt))
		dst := pickReachable(providence, int64(40+attempt))
		res, err = in.Send(
			internetwork.Address{Region: "boston", Building: src},
			internetwork.Address{Region: "providence", Building: dst},
			[]byte("inter-city safety check"), sim.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		if res.Delivered {
			break
		}
	}
	if lat, ok := res.EndToEndLatency(); ok {
		fmt.Printf("delivered via %d legs (%d gateway failovers), %d mesh broadcasts, ~%.0f ms end to end\n",
			len(res.Legs), res.GatewayFailovers, res.TotalBroadcasts, lat*1000)
	} else {
		fmt.Printf("not delivered (%v) after %d legs\n", res.Failure, len(res.Legs))
	}

	// Fail the satellite link: the inter-network partitions (no alternate).
	in.FailLink("worcester", "providence", true)
	if _, _, err := in.RegionPath("boston", "providence"); err != nil {
		fmt.Println("satellite link down: providence unreachable —", err)
	}
	// A backup HF radio link restores connectivity at higher latency.
	must(in.AddLink(internetwork.Link{A: "boston", B: "providence", Kind: internetwork.LinkHFRadio}))
	path, latency, err = in.RegionPath("boston", "providence")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("with backup HF link: %v (link latency %.0f ms)\n", path, latency*1000)
}

// pickGateways returns two buildings inside the mesh's largest island:
// a primary gateway plus a failover.
func pickGateways(net *citymesh.Network) []int {
	islands := net.Mesh.Islands()
	if len(islands) == 0 {
		return []int{0}
	}
	var gws []int
	for b := 0; b < net.City.NumBuildings() && len(gws) < 2; b++ {
		aps := net.Mesh.APsInBuilding(b)
		if len(aps) > 0 && net.Mesh.ComponentOf(int(aps[0])) == islands[0].Component {
			gws = append(gws, b)
		}
	}
	if len(gws) == 0 {
		return []int{0}
	}
	return gws
}

// pickReachable returns a building that can reach the region's gateway.
func pickReachable(r *internetwork.Region, seed int64) int {
	pairs, err := r.Net.RandomPairs(seed, 300)
	if err != nil {
		log.Fatal(err)
	}
	gw := r.Gateways[0]
	for _, p := range pairs {
		b := p[0]
		if b == gw || !r.Net.Reachable(b, gw) {
			continue
		}
		if _, err := r.Net.PlanRoute(b, gw); err == nil {
			return b
		}
	}
	return gw
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
