package experiments

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"strings"

	"citymesh/internal/citygen"
	"citymesh/internal/core"
	"citymesh/internal/internetwork"
	"citymesh/internal/runner"
	"citymesh/internal/sim"
	"citymesh/internal/stats"
)

// The federation experiment: the paper's §1 question — "how do we form an
// inter-network of DFNs across regions?" — answered with scaling numbers.
// It sweeps generated federations from 2 to 100 member cities and measures
// the two quantities the hierarchy is supposed to keep flat:
//
//   - per-AP routing state: an ordinary AP holds its region index and its
//     region's gateway list, independent of federation size, while the flat
//     baseline (every AP holds next-hop state per destination building
//     across all member cities) grows linearly;
//   - header size: an inter-region packet carries one constant-size region
//     prefix plus the largest intra-region header of any leg, while a flat
//     source route concatenates every leg's waypoints.
//
// Each cell also injects failures — a fraction of long-haul links down, or
// every region's primary gateway dead — and reports delivery through the
// multi-gateway failover and level-1 reroute machinery.

// FederationConfig parameterizes the sweep. FederationSweep fills a zero
// field from DefaultFederationConfig, except Topology.
type FederationConfig struct {
	// Sizes lists the federation sizes (member-city counts) to sweep.
	Sizes []int
	// Topology is the long-haul link graph shape. Its zero value is
	// citygen.TopoLine, a shape of its own; DefaultFederationConfig sets
	// mesh, which keeps redundant paths for the link-failure arms.
	Topology citygen.FedTopology
	// LinkFailFracs lists the fractions of long-haul links to fail, one
	// arm per fraction (0 = healthy baseline). Each size also gets one arm
	// in which every multi-gateway region's primary gateway is failed,
	// forcing gateway failover.
	LinkFailFracs []float64
	// Seed drives federation generation, failure selection and the
	// per-send simulations.
	Seed int64
	// Pairs is the number of inter-city sends per cell.
	Pairs int
	// Parallelism is the runner worker count (0 = GOMAXPROCS). Output is
	// byte-identical at any setting.
	Parallelism int
}

// DefaultFederationConfig is the paper-style sweep: 2 to 100 cities on a
// mesh, healthy and 30%-links-down arms, plus the dead-primary-gateway arm.
func DefaultFederationConfig() FederationConfig {
	return FederationConfig{
		Sizes:         []int{2, 5, 10, 25, 50, 100},
		Topology:      citygen.TopoMesh,
		LinkFailFracs: []float64{0, 0.3},
		Seed:          1,
		Pairs:         12,
	}
}

// federationSizesUpTo restricts the default size sweep to at most max
// cities, always including max itself (the -federation-cities CLI knob).
func federationSizesUpTo(max int) []int {
	var sizes []int
	for _, n := range DefaultFederationConfig().Sizes {
		if n < max {
			sizes = append(sizes, n)
		}
	}
	return append(sizes, max)
}

// FederationRow is one sweep cell: a federation size under one failure
// regime.
type FederationRow struct {
	Cities        int
	Topology      string
	LinkFailFrac  float64
	DeadPrimaryGW bool

	// Sends is the number of attempted inter-city sends; Partitioned
	// counts those the failed links disconnected at level 1 (no link path
	// exists — not a routing failure); Delivered counts end-to-end
	// successes. DeliveryRate is Delivered over the non-partitioned sends.
	Sends, Partitioned, Delivered int
	DeliveryRate                  float64
	GatewayFailovers, Reroutes    int

	// State accounting (bytes): what an ordinary AP holds under the
	// hierarchy, what a gateway holds, and what an AP would hold flat.
	PerAPStateBytes, GatewayStateBytes, FlatPerAPStateBytes int

	// Header accounting (bits) over delivered sends: hierarchical = the
	// constant region prefix plus the largest single-leg header; flat =
	// the legs' route waypoints concatenated into one source route.
	HierBitsP50, HierBitsP90 float64
	FlatBitsP50, FlatBitsP90 float64
	PrefixBits               float64
}

// FederationSweep runs the full sweep. Cells are independent runner tasks
// seeded by cell index, so results are byte-identical at any parallelism.
func FederationSweep(cfg FederationConfig) ([]FederationRow, error) {
	d := DefaultFederationConfig()
	if len(cfg.Sizes) == 0 {
		cfg.Sizes = d.Sizes
	}
	if len(cfg.LinkFailFracs) == 0 {
		cfg.LinkFailFracs = d.LinkFailFracs
	}
	if cfg.Pairs <= 0 {
		cfg.Pairs = d.Pairs
	}
	if cfg.Seed == 0 {
		cfg.Seed = d.Seed
	}
	for _, n := range cfg.Sizes {
		if n < 2 {
			return nil, fmt.Errorf("experiments: federation size %d < 2", n)
		}
	}

	type cell struct {
		size   int
		frac   float64
		gwFail bool
	}
	var cells []cell
	for _, n := range cfg.Sizes {
		for _, f := range cfg.LinkFailFracs {
			cells = append(cells, cell{size: n, frac: f})
		}
		cells = append(cells, cell{size: n, gwFail: true})
	}
	return runner.MapErr(cfg.Parallelism, len(cells), func(i int) (FederationRow, error) {
		c := cells[i]
		return federationCell(cfg, c.size, c.frac, c.gwFail, i)
	})
}

// federationCell builds one federation, injects the cell's failures, runs
// the sends, and aggregates the row. Everything derives from
// runner.TaskSeed(cfg.Seed, cellIdx), never from worker identity.
func federationCell(cfg FederationConfig, size int, frac float64, gwFail bool, cellIdx int) (FederationRow, error) {
	fed, err := citygen.GenerateFederation(citygen.FederationSpec{
		Cities: size, Topology: cfg.Topology, Seed: cfg.Seed,
	})
	if err != nil {
		return FederationRow{}, err
	}
	in := internetwork.New()
	regions := make([]*internetwork.Region, len(fed.Cities))
	totalBuildings := 0
	for i, fc := range fed.Cities {
		net, err := core.FromSpec(fc.Spec, core.DefaultConfig())
		if err != nil {
			return FederationRow{}, fmt.Errorf("experiments: member %s: %w", fc.Name, err)
		}
		totalBuildings += net.City.NumBuildings()
		r := &internetwork.Region{
			ID: internetwork.RegionID(fc.Name), Net: net,
			Gateways: federationGateways(net), Pos: fc.PosKm,
		}
		if err := in.AddRegion(r); err != nil {
			return FederationRow{}, err
		}
		regions[i] = r
	}
	for _, l := range fed.Links {
		if err := in.AddLink(internetwork.Link{
			A:    internetwork.RegionID(fed.Cities[l.A].Name),
			B:    internetwork.RegionID(fed.Cities[l.B].Name),
			Kind: internetwork.LinkFiber, LatencySeconds: l.LatencyS,
			BandwidthMbps: l.BandwidthMbps,
		}); err != nil {
			return FederationRow{}, err
		}
	}

	rng := rand.New(rand.NewSource(runner.TaskSeed(cfg.Seed, cellIdx)))
	if frac > 0 {
		links := in.Links()
		k := int(math.Round(frac * float64(len(links))))
		for _, li := range rng.Perm(len(links))[:k] {
			in.FailLink(links[li].A, links[li].B, true)
		}
	}
	if gwFail {
		// Kill every primary gateway that has a live alternate: the arm
		// measures failover, not deliberate region loss.
		for _, r := range regions {
			if len(r.Gateways) >= 2 {
				in.FailGateway(r.ID, r.Gateways[0], true)
			}
		}
	}

	endpoints := make([]int, len(regions))
	for i, r := range regions {
		endpoints[i] = federationEndpoint(r)
	}

	simCfg := sim.DefaultConfig()
	row := FederationRow{
		Cities: size, Topology: cfg.Topology.String(),
		LinkFailFrac: frac, DeadPrimaryGW: gwFail,
	}
	var hierBits, flatBits, prefixBits []float64
	payload := []byte("federation probe")
	for k := 0; k < cfg.Pairs; k++ {
		srcCity := k % size
		dstCity := (srcCity + 1 + rng.Intn(size-1)) % size
		sendSeed := runner.TaskSeed(cfg.Seed, cellIdx*100003+k+1)
		legSim := simCfg
		legSim.Seed = sendSeed
		res, err := in.SendOpts(
			internetwork.Address{Region: regions[srcCity].ID, Building: endpoints[srcCity]},
			internetwork.Address{Region: regions[dstCity].ID, Building: endpoints[dstCity]},
			payload, legSim, internetwork.SendOptions{Seed: sendSeed})
		if err != nil {
			return FederationRow{}, err
		}
		row.Sends++
		row.GatewayFailovers += res.GatewayFailovers
		row.Reroutes += res.Reroutes
		if res.Failure == internetwork.FailNoLinkPath {
			row.Partitioned++
			continue
		}
		if !res.Delivered {
			continue
		}
		row.Delivered++
		maxHeader, maxRoute, wps, transits := 0, 0, 0, 0
		for _, leg := range res.Legs {
			switch leg.Reason {
			case internetwork.LegOK:
				wps += leg.Waypoints
				if leg.HeaderBits > maxHeader {
					maxHeader = leg.HeaderBits
				}
				if leg.RouteBits > maxRoute {
					maxRoute = leg.RouteBits
				}
			case internetwork.LegPassthrough:
				// A flat source route still names the gateway building it
				// crosses; the hierarchy crosses it with zero route bits.
				transits++
			}
		}
		// Hierarchical: constant prefix + the largest per-leg header any
		// relay parses; waypoints are region-local. Flat: one source
		// route spanning the federation — every waypoint of every leg
		// plus each transit building, each at federation-global width.
		globalBits := bits.Len(uint(totalBuildings - 1))
		hierBits = append(hierBits, float64(res.PrefixBits+maxHeader))
		flatBits = append(flatBits, float64((maxHeader-maxRoute)+(wps+transits)*globalBits))
		prefixBits = append(prefixBits, float64(res.PrefixBits))
	}
	row.DeliveryRate = ratio(row.Delivered, row.Sends-row.Partitioned)
	// Leave the bit columns zero (not NaN) when nothing delivered, as the
	// other experiments' empty summaries read.
	if len(hierBits) > 0 {
		hs, fs := stats.Summarize(hierBits), stats.Summarize(flatBits)
		row.HierBitsP50, row.HierBitsP90 = hs.P50, hs.P90
		row.FlatBitsP50, row.FlatBitsP90 = fs.P50, fs.P90
		row.PrefixBits = stats.Summarize(prefixBits).Mean
	}

	// State is a topology property, not a traffic property: report the
	// first region's ordinary-AP state (all members are generated alike).
	row.PerAPStateBytes = in.PerAPL1StateBytes(regions[0].ID)
	row.GatewayStateBytes = in.GatewayStateBytes()
	row.FlatPerAPStateBytes = in.FlatPerAPStateBytes()
	return row, nil
}

// federationGateways picks up to two gateway buildings inside the member
// mesh's largest island: a primary and a failover.
func federationGateways(n *core.Network) []int {
	islands := n.Mesh.Islands()
	if len(islands) == 0 {
		return []int{0}
	}
	var gws []int
	for b := 0; b < n.City.NumBuildings() && len(gws) < 2; b++ {
		aps := n.Mesh.APsInBuilding(b)
		if len(aps) > 0 && n.Mesh.ComponentOf(int(aps[0])) == islands[0].Component {
			gws = append(gws, b)
		}
	}
	if len(gws) == 0 {
		return []int{0}
	}
	return gws
}

// federationEndpoint picks the region's send endpoint: the first non-gateway
// island building with plannable routes to and from every gateway, falling
// back to the primary gateway itself.
func federationEndpoint(r *internetwork.Region) int {
	n := r.Net
	islands := n.Mesh.Islands()
	if len(islands) == 0 {
		return r.Gateways[0]
	}
	isGW := map[int]bool{}
	for _, g := range r.Gateways {
		isGW[g] = true
	}
	for b := 0; b < n.City.NumBuildings(); b++ {
		aps := n.Mesh.APsInBuilding(b)
		if len(aps) == 0 || n.Mesh.ComponentOf(int(aps[0])) != islands[0].Component || isGW[b] {
			continue
		}
		ok := true
		for _, g := range r.Gateways {
			if _, err := n.PlanRoute(b, g); err != nil {
				ok = false
				break
			}
			if _, err := n.PlanRoute(g, b); err != nil {
				ok = false
				break
			}
		}
		if ok {
			return b
		}
	}
	return r.Gateways[0]
}

// FederationText renders the sweep with the scaling verdict the hierarchy
// is judged on: state and header growth factors from the smallest to the
// largest healthy federation.
func FederationText(rows []FederationRow) string {
	var sb strings.Builder
	sb.WriteString("Federation sweep: two-level hierarchy vs flat baseline\n")
	sb.WriteString("cities  topology  linkfail  gwfail  sends  part  deliv  rate   failover  reroute  apB  gwB     flatB    hierP50  hierP90  flatP50  flatP90\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%6d  %-8s  %8.2f  %6v  %5d  %4d  %5d  %5.3f  %8d  %7d  %3d  %6d  %7d  %7.0f  %7.0f  %7.0f  %7.0f\n",
			r.Cities, r.Topology, r.LinkFailFrac, r.DeadPrimaryGW,
			r.Sends, r.Partitioned, r.Delivered, r.DeliveryRate,
			r.GatewayFailovers, r.Reroutes,
			r.PerAPStateBytes, r.GatewayStateBytes, r.FlatPerAPStateBytes,
			r.HierBitsP50, r.HierBitsP90, r.FlatBitsP50, r.FlatBitsP90)
	}
	if lo, hi, ok := federationBaselinePair(rows); ok {
		growth := func(a, b float64) string {
			if a <= 0 || math.IsNaN(a) || math.IsNaN(b) {
				return "n/a"
			}
			return fmt.Sprintf("%.2fx", b/a)
		}
		fmt.Fprintf(&sb, "growth %d -> %d cities (healthy): per-AP state %s, hier header p90 %s; flat state %s, flat header p90 %s\n",
			lo.Cities, hi.Cities,
			growth(float64(lo.PerAPStateBytes), float64(hi.PerAPStateBytes)),
			growth(lo.HierBitsP90, hi.HierBitsP90),
			growth(float64(lo.FlatPerAPStateBytes), float64(hi.FlatPerAPStateBytes)),
			growth(lo.FlatBitsP90, hi.FlatBitsP90))
	}
	return sb.String()
}

// federationBaselinePair finds the smallest and largest healthy
// (no-failure) rows for the growth-factor summary.
func federationBaselinePair(rows []FederationRow) (lo, hi FederationRow, ok bool) {
	for _, r := range rows {
		if r.LinkFailFrac != 0 || r.DeadPrimaryGW {
			continue
		}
		if !ok {
			lo, hi, ok = r, r, true
			continue
		}
		if r.Cities < lo.Cities {
			lo = r
		}
		if r.Cities > hi.Cities {
			hi = r
		}
	}
	return lo, hi, ok && lo.Cities != hi.Cities
}

// FederationCSV renders the sweep as CSV.
func FederationCSV(rows []FederationRow) string {
	var sb strings.Builder
	sb.WriteString("cities,topology,link_fail_frac,dead_primary_gw,sends,partitioned,delivered,delivery_rate," +
		"gateway_failovers,reroutes,per_ap_state_bytes,gateway_state_bytes,flat_per_ap_state_bytes," +
		"prefix_bits,hier_bits_p50,hier_bits_p90,flat_bits_p50,flat_bits_p90\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%d,%s,%.2f,%v,%d,%d,%d,%.4f,%d,%d,%d,%d,%d,%.1f,%.0f,%.0f,%.0f,%.0f\n",
			r.Cities, r.Topology, r.LinkFailFrac, r.DeadPrimaryGW,
			r.Sends, r.Partitioned, r.Delivered, r.DeliveryRate,
			r.GatewayFailovers, r.Reroutes,
			r.PerAPStateBytes, r.GatewayStateBytes, r.FlatPerAPStateBytes,
			r.PrefixBits, r.HierBitsP50, r.HierBitsP90, r.FlatBitsP50, r.FlatBitsP90)
	}
	return sb.String()
}
