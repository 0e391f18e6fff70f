// Package parity is the sim↔live differential harness for the shared
// forwarding kernel (internal/fwd). It drives the same generated city,
// the same packet, and the same static fault set through two
// implementations that share nothing but the kernel:
//
//   - the discrete-event simulator (internal/sim) running the CityMesh
//     policy, and
//   - an in-process hub of live AP agents (internal/agent) exchanging
//     encoded frames over the mesh adjacency,
//
// then asserts that the two worlds reach, rebroadcast at, and deliver to
// exactly the same AP sets. A mismatch means the sim policy and the live
// runtime have drifted apart — precisely the bug the kernel exists to
// make impossible — so the harness runs in CI (the "parity" experiment
// and the package tests).
//
// The comparison is exact only in the noise-free regime the scenarios
// pin down: zero jitter, zero loss, no collision window, unit-disk
// radio, and static failures. Under those settings both worlds compute
// the same BFS closure over kernel-approved forwarders (equal per-hop
// delay makes the sim's event order hop-count order, which is also the
// hub's FIFO order), so set equality is the expected outcome, not a
// statistical one. Time-varying fault schedules are rejected: their
// outcome depends on event timing the live hub does not model.
package parity

import (
	"fmt"
	"sort"

	"citymesh/internal/agent"
	"citymesh/internal/citygen"
	"citymesh/internal/core"
	"citymesh/internal/faults"
	"citymesh/internal/fwd"
	"citymesh/internal/mesh"
	"citymesh/internal/packet"
	"citymesh/internal/routing"
	"citymesh/internal/sim"
)

// Scenario is one parity run: a generated city, a fault injection, and a
// message (point-to-point or geocast).
type Scenario struct {
	// Name labels the scenario in tables and failures.
	Name string
	// Seed drives city generation, AP placement, pair choice, and fault
	// injection.
	Seed int64
	// FaultMode and FaultFrac configure a static fault injection
	// (faults.ModeNone, ModeUniform, ModeDisk, ...). Churn is rejected:
	// parity is defined only for time-invariant failure sets.
	FaultMode faults.Mode
	FaultFrac float64
	// Geocast turns the message into an area broadcast around the
	// destination building's centroid with the given radius in meters.
	Geocast       bool
	GeocastRadius float64
}

// Result is the outcome of one parity run.
type Result struct {
	Scenario Scenario
	// APs is the mesh size; Failed how many the injection killed.
	APs    int
	Failed int
	// SourceAP is the AP both worlds injected at.
	SourceAP int
	// Reached / Forwarded / Delivered are the agreed set sizes (valid
	// when OK).
	Reached   int
	Forwarded int
	Delivered int
	// SimDelivered reports the simulator's destination-building verdict.
	SimDelivered bool
	// Decisions is the kernel's per-reason tally from the sim run; the
	// hub's total is asserted identical.
	Decisions fwd.Counts
	// Mismatches lists every AP where the two worlds disagreed, already
	// formatted; empty means parity holds.
	Mismatches []string
}

// OK reports whether the simulator and the live agents agreed exactly.
func (r Result) OK() bool { return len(r.Mismatches) == 0 }

// Scenarios returns the standard parity suite: a clean baseline, a
// disk-outage injection (§4's disaster scenario), uniform random
// failures, and a geocast. CI runs all of them.
func Scenarios() []Scenario {
	return []Scenario{
		{Name: "baseline", Seed: 11},
		{Name: "disk-outage", Seed: 12, FaultMode: faults.ModeDisk, FaultFrac: 0.30},
		{Name: "uniform-30", Seed: 13, FaultMode: faults.ModeUniform, FaultFrac: 0.30},
		{Name: "geocast", Seed: 14, Geocast: true, GeocastRadius: 120},
	}
}

// Run executes one scenario through both worlds and diffs them.
func Run(sc Scenario) (Result, error) {
	res := Result{Scenario: sc}

	net, err := core.FromSpec(citygen.SmallTestSpec(sc.Seed), core.Config{APSeed: sc.Seed})
	if err != nil {
		return res, fmt.Errorf("parity %s: build network: %w", sc.Name, err)
	}
	res.APs = net.Mesh.NumAPs()

	inj, err := faults.Inject(net.Mesh, net.City, faults.Config{
		Mode: sc.FaultMode, Frac: sc.FaultFrac, Seed: sc.Seed,
	})
	if err != nil {
		return res, fmt.Errorf("parity %s: inject faults: %w", sc.Name, err)
	}
	if inj.Schedule != nil {
		return res, fmt.Errorf("parity %s: time-varying fault schedules are not parity-comparable", sc.Name)
	}
	res.Failed = inj.FailedSet.Len()

	pkt, srcAP, err := pickMessage(net, inj.FailedSet, sc)
	if err != nil {
		return res, fmt.Errorf("parity %s: %w", sc.Name, err)
	}
	res.SourceAP = srcAP

	// World A: the discrete-event simulator in its noise-free setting. The
	// harness builds its own engine with a fresh kernel-backed policy so
	// the decision tally diffed below covers exactly this run.
	eng := sim.NewEngine(net.Mesh, net.City, routing.NewCityMesh())
	simRes, err := eng.Run(pkt, sim.Config{
		TxDelay:          0.001,
		FailedSet:        inj.FailedSet,
		Seed:             1,
		RecordTranscript: true,
	})
	if err != nil {
		return res, fmt.Errorf("parity %s: sim run: %w", sc.Name, err)
	}
	if simRes.SourceAP != srcAP {
		return res, fmt.Errorf("parity %s: sim injected at AP %d, expected %d", sc.Name, simRes.SourceAP, srcAP)
	}
	res.SimDelivered = simRes.Delivered
	res.Decisions = simRes.Decisions

	// World B: live agents on the in-process hub, same fault set.
	hub := agent.NewHubWithConfig(net.Mesh, net.City, agent.HubConfig{Failed: inj.FailedSet})
	delivered := make([]bool, net.Mesh.NumAPs())
	for i := 0; i < hub.NumAgents(); i++ {
		i := i
		hub.Agent(i).OnDeliver(func(*packet.Packet) { delivered[i] = true })
	}
	if err := hub.Agent(srcAP).Inject(pkt.Clone()); err != nil {
		hub.Close()
		return res, fmt.Errorf("parity %s: inject: %w", sc.Name, err)
	}
	hub.Flush()
	hub.Close()

	// Diff the three per-AP sets plus the kernel tallies.
	var hubDecisions fwd.Counts
	hdr := &pkt.Header
	for ap := 0; ap < net.Mesh.NumAPs(); ap++ {
		st := hub.Agent(ap).Stats()
		hubDecisions = add(hubDecisions, st.Decisions)

		simReached := simRes.Transcript[ap].Received
		liveReached := st.Received > 0 || ap == srcAP
		if simReached != liveReached {
			res.Mismatches = append(res.Mismatches,
				fmt.Sprintf("ap %d: reached sim=%v live=%v", ap, simReached, liveReached))
			continue
		}
		if simReached {
			res.Reached++
		}

		simFwd := simRes.Transcript[ap].Forwarded
		liveFwd := st.Rebroadcast > 0
		if simFwd != liveFwd {
			res.Mismatches = append(res.Mismatches,
				fmt.Sprintf("ap %d: forwarded sim=%v live=%v", ap, simFwd, liveFwd))
		} else if simFwd {
			res.Forwarded++
		}

		// The simulator has no per-AP delivery callback; its expected
		// delivery set is "reached and the kernel would deliver here" —
		// the same predicate the live agent evaluates.
		a := net.Mesh.APs[ap]
		simDel := simReached && fwd.WouldDeliver(hdr, fwd.Self{Pos: a.Pos, Building: a.Building})
		if simDel != delivered[ap] {
			res.Mismatches = append(res.Mismatches,
				fmt.Sprintf("ap %d: delivered sim=%v live=%v", ap, simDel, delivered[ap]))
		} else if simDel {
			res.Delivered++
		}
	}
	if hubDecisions != simRes.Decisions {
		res.Mismatches = append(res.Mismatches,
			fmt.Sprintf("kernel tallies diverge: sim=%+v live=%+v", simRes.Decisions, hubDecisions))
	}
	sort.Strings(res.Mismatches)
	return res, nil
}

// RunAll runs every scenario and returns the results; err is non-nil if
// any scenario failed to run at all (as opposed to running and
// mismatching, which the Result reports).
func RunAll(scs []Scenario) ([]Result, error) {
	out := make([]Result, 0, len(scs))
	for _, sc := range scs {
		r, err := Run(sc)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// pickMessage selects a routable building pair whose source AP survived
// the injection and builds the scenario's packet.
func pickMessage(net *core.Network, failed mesh.NodeSet, sc Scenario) (*packet.Packet, int, error) {
	pairs, err := net.RandomPairs(sc.Seed, 256)
	if err != nil {
		return nil, -1, err
	}
	for _, p := range pairs {
		src, dst := p[0], p[1]
		if !net.Reachable(src, dst) {
			continue
		}
		aps := net.Mesh.APsInBuilding(src)
		if len(aps) == 0 || failed.Contains(int(aps[0])) {
			continue
		}
		route, err := net.PlanRoute(src, dst)
		if err != nil {
			continue
		}
		pkt, err := net.NewPacket(route, []byte("parity probe"))
		if err != nil {
			continue
		}
		if sc.Geocast {
			c := net.City.Buildings[dst].Centroid
			pkt.Header.Flags |= packet.FlagGeocast
			pkt.Header.Target = packet.GeocastArea{
				CenterX: int32(c.X + 0.5),
				CenterY: int32(c.Y + 0.5),
				Radius:  uint32(sc.GeocastRadius + 0.5),
			}
		}
		return pkt, int(aps[0]), nil
	}
	return nil, -1, fmt.Errorf("no viable (src, dst) pair among %d candidates", len(pairs))
}

func add(a, b fwd.Counts) fwd.Counts {
	return fwd.Counts{
		FirstHop:     a.FirstHop + b.FirstHop,
		TTLExpired:   a.TTLExpired + b.TTLExpired,
		Geocast:      a.Geocast + b.Geocast,
		InConduit:    a.InConduit + b.InConduit,
		OutOfConduit: a.OutOfConduit + b.OutOfConduit,
		BadRoute:     a.BadRoute + b.BadRoute,
	}
}
