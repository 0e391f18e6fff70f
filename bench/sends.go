package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"citymesh/internal/buildinggraph"
	"citymesh/internal/citygen"
	"citymesh/internal/conduit"
	"citymesh/internal/core"
	"citymesh/internal/mesh"
	"citymesh/internal/osm"
	"citymesh/internal/runner"
	"citymesh/internal/sim"
)

// payloadBytes is the smallest realistic message, so the cost per packet
// dominates the cost per byte.
const payloadBytes = 64

// buildNetwork makes a network for spec with everything a first send would
// otherwise build lazily. The untraced pass uses the repo's constructor; the
// traced pass makes the same calls one by one so each step can be costed.
// Both passes must produce the same digest, which keeps the two in step.
func buildNetwork(spec citygen.Spec, st *steps) (*core.Network, error) {
	if st == nil {
		n, err := core.FromSpec(spec, core.DefaultConfig())
		if err != nil {
			return nil, err
		}
		n.Mesh.Adjacency()
		sweepReachable(n.Mesh, n.City.NumBuildings())
		n.Engine()
		return n, nil
	}
	var (
		plan *citygen.Plan
		err  error
		n    = &core.Network{Cfg: core.DefaultConfig()}
	)
	st.do("citygen.generate", func() { plan, err = citygen.Generate(spec) })
	if err != nil {
		return nil, err
	}
	st.do("core.plan_to_city", func() { n.City = core.PlanToCity(plan) })
	cfg := n.Cfg
	st.do("buildinggraph.build", func() {
		n.Graph = buildinggraph.Build(n.City, buildinggraph.Config{
			MaxGap:         cfg.PredictGapFactor * cfg.TransmissionRange,
			WeightExponent: cfg.WeightExponent,
			MinWeight:      1,
		})
	})
	st.do("mesh.place", func() {
		n.Mesh = mesh.Place(n.City, mesh.Config{
			Density: cfg.APDensity, Range: cfg.TransmissionRange,
			Seed: cfg.APSeed, MinPerBuilding: 1,
		})
	})
	st.do("mesh.adjacency", func() { n.Mesh.Adjacency() })
	st.do("mesh.unionfind", func() { sweepReachable(n.Mesh, n.City.NumBuildings()) })
	st.do("sim.new_engine", func() { n.Engine() })
	return n, nil
}

// sweepReachable asks the union-find about every building once, so a lazy
// union-find would be built here and not inside the first timed op.
func sweepReachable(m *mesh.Mesh, buildings int) {
	for b := 0; b < buildings; b++ {
		m.Reachable(0, b)
	}
}

// networkSteps copies the set-up step costs into the per-layer metrics.
func networkSteps(m metrics, st *steps) {
	m["citygen.generate_ms"], _, _ = st.cost("citygen.generate")
	m["buildinggraph.build_ms"], m["buildinggraph.build_allocs"], _ = st.cost("buildinggraph.build")
	m["mesh.place_ms"], _, m["mesh.place_mb"] = st.cost("mesh.place")
	m["mesh.adjacency_ms"], m["mesh.adjacency_allocs"], m["mesh.adjacency_mb"] = st.cost("mesh.adjacency")
	m["mesh.unionfind_ms"], _, _ = st.cost("mesh.unionfind")
	m["sim.new_engine_ms"], _, _ = st.cost("sim.new_engine")
}

// stratifiedPairs draws one (source, destination) pair of buildings for
// every ordered pair of cells of a g x g grid over the city, in shuffled
// order: g^4 pairs, fewer where a cell is empty or accept refuses what it
// holds. The seed picks the buildings inside the cells. Every seed's pairs
// therefore cover the same mix of distances and districts, which a plain
// random sample of this size does not: op cost grows with distance, and a
// lap's mean would move by several percent from seed to seed.
func stratifiedPairs(city *osm.City, g int, seed int64, accept func(src, dst int) bool) [][2]int {
	rng := rand.New(rand.NewSource(seed))
	cells := make([][]int, g*g)
	b := city.Bounds
	for i := 0; i < city.NumBuildings(); i++ {
		c := city.Centroid(i)
		x := min(max(int(float64(g)*(c.X-b.Min.X)/b.Width()), 0), g-1)
		y := min(max(int(float64(g)*(c.Y-b.Min.Y)/b.Height()), 0), g-1)
		cells[y*g+x] = append(cells[y*g+x], i)
	}
	var pairs [][2]int
	for _, from := range cells {
		for _, to := range cells {
			if len(from) == 0 || len(to) == 0 {
				continue
			}
			for try := 0; try < 8; try++ {
				src, dst := from[rng.Intn(len(from))], to[rng.Intn(len(to))]
				if src != dst && (accept == nil || accept(src, dst)) {
					pairs = append(pairs, [2]int{src, dst})
					break
				}
			}
		}
	}
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	return pairs
}

// opSeeds gives op i of a lap its simulator seed.
func opSeeds(seed int64, n int) []int64 {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = runner.TaskSeed(seed, i)
	}
	return seeds
}

// hashSim folds every counter of a simulation result into h.
func hashSim(h hasher, r sim.Result) hasher {
	d := r.Decisions
	return h.bool(r.Delivered).float(r.DeliveryTime).int(r.DeliveryHops).
		int(r.Broadcasts).int(r.Receptions).int(r.APsReached).int(r.SourceAP).
		int(r.LostToDeadAP).int(r.LostToCollision).int(r.LostToLoss).int(r.LostToRange).
		int(r.RejectedTampered).int(r.RejectedTTL).int(r.RejectedRateLimited).
		int(int(d.FirstHop)).int(int(d.TTLExpired)).int(int(d.InConduit)).
		int(int(d.OutOfConduit)).int(int(d.BadRoute))
}

// sendWorkload is city-send and metro-send: plain Network.Send over random
// building pairs of a healthy mesh, the inner loop of the paper's Figure 6.
type sendWorkload struct {
	opt    options
	preset string
	grid   int // a lap is grid^4 sends

	net     *core.Network
	pairs   [][2]int
	seeds   []int64
	payload []byte

	// first lap's results, for the statistics the simulator gives exactly
	first  []core.SendResult
	noPath int
}

func newSendWorkload(o options, preset string, grid int) *sendWorkload {
	return &sendWorkload{opt: o, preset: preset, grid: o.grid(grid), payload: make([]byte, payloadBytes)}
}

func (w *sendWorkload) sampleEvery() int { return 1 }

func (w *sendWorkload) build(st *steps) error {
	spec, ok := citygen.Preset(w.preset)
	if !ok {
		return fmt.Errorf("no preset %q", w.preset)
	}
	n, err := buildNetwork(spec, st)
	w.net = n
	return err
}

func (w *sendWorkload) generate() error {
	w.pairs = stratifiedPairs(w.net.City, w.grid, w.opt.seed, nil)
	w.seeds = opSeeds(w.opt.seed, len(w.pairs))
	return nil
}

func (w *sendWorkload) prepare() error { return nil }

func (w *sendWorkload) lap(r *lapRec, tr *tracer) {
	for i, p := range w.pairs {
		sc := sim.DefaultConfig()
		sc.Seed = w.seeds[i]
		var res core.SendResult
		var err error
		r.begin()
		if tr == nil {
			res, err = w.net.Send(p[0], p[1], w.payload, sc)
		} else {
			res, err = tracedSend(tr, w.net, p[0], p[1], w.payload, sc)
		}
		if errors.Is(err, buildinggraph.ErrNoPath) {
			// The map predicts no route: the message is not sent. That is
			// an undelivered op, not a failed one.
			if r.record {
				w.noPath++
				w.first = append(w.first, core.SendResult{})
			}
			r.end(outcome{hash: uint64(newHasher().int(-1))}, nil)
			continue
		}
		if err == nil && r.record {
			w.first = append(w.first, res)
		}
		r.end(sendOutcome(res), err)
	}
}

func sendOutcome(res core.SendResult) outcome {
	o := outcome{
		hash:      uint64(hashSim(newHasher(), res.Sim).int(res.IdealTransmissions).int(len(res.Route.Waypoints))),
		delivered: res.Sim.Delivered,
		tx:        res.Sim.Broadcasts,
	}
	if res.Packet != nil {
		o.hdrBytes = res.Packet.Header.EncodedLen()
	}
	if res.Sim.Delivered {
		o.simMs = res.Sim.DeliveryTime * 1e3
	}
	return o
}

// tracedSend issues the calls Network.Send makes, in its order, with a span
// around each. Send's own children are invisible from outside; the caller
// checks that this decomposition and Send produce the same result.
func tracedSend(tr *tracer, n *core.Network, src, dst int, payload []byte, sc sim.Config) (core.SendResult, error) {
	tr.nextOp()
	tr.begin(spSend)
	defer tr.end()

	tr.begin(spShortestPath)
	path, _, err := n.Graph.ShortestPath(src, dst)
	tr.end()
	if err != nil {
		return core.SendResult{}, err
	}
	tr.begin(spCompress)
	route, err := conduit.Compress(n.City, path, n.Cfg.ConduitWidth)
	tr.end()
	if err != nil {
		return core.SendResult{}, err
	}
	tr.begin(spNewPacket)
	pkt, err := n.NewPacket(route, payload)
	tr.end()
	if err != nil {
		return core.SendResult{}, err
	}
	tr.begin(spEngineRun)
	res, err := n.Engine().Run(pkt, sc)
	tr.end()
	if err != nil {
		return core.SendResult{}, err
	}
	out := core.SendResult{Route: route, Packet: pkt, Sim: res, IdealTransmissions: -1}
	tr.begin(spMinTx)
	ideal, err := n.Mesh.MinTransmissions(src, dst)
	tr.end()
	if err == nil {
		out.IdealTransmissions = ideal
	}
	return out, nil
}

func (w *sendWorkload) check() error { return nil }

func (w *sendWorkload) layers(m metrics, tr *tracer, st *steps) error {
	networkSteps(m, st)
	m["core.send_us"] = tr.meanUs(spSend)
	m["core.send_self_us"] = tr.meanSelfUs(spSend)
	m["buildinggraph.shortest_path_us"] = tr.meanUs(spShortestPath)
	m["conduit.compress_us"] = tr.meanUs(spCompress)
	m["core.new_packet_ns"] = tr.meanUs(spNewPacket) * 1e3
	m["sim.run_us"] = tr.meanUs(spEngineRun)
	m["mesh.min_tx_us"] = tr.meanUs(spMinTx)
	m["buildinggraph.no_path_frac"] = float64(w.noPath) / float64(len(w.pairs))

	var sims []sim.Result
	var waypoints int
	for _, res := range w.first {
		sims = append(sims, res.Sim)
		waypoints += len(res.Route.Waypoints)
	}
	if sent := len(w.pairs) - w.noPath; sent > 0 {
		m["conduit.waypoints_mean"] = float64(waypoints) / float64(sent)
	}
	simMetrics(m, sims, tr.meanUs(spEngineRun)*1e3)

	// Allocation counts of the inner layers, by separate calls on the first
	// pairs of the pool.
	n := min(len(w.pairs), w.opt.size(256))
	g, ms := w.net.Graph, w.net.Mesh
	_, m["buildinggraph.shortest_path_allocs"] = timeCalls(n, func(i int) {
		_, _, _ = g.ShortestPath(w.pairs[i][0], w.pairs[i][1]) // no path is an outcome here, not an error
	})
	_, m["mesh.min_tx_allocs"] = timeCalls(n, func(i int) {
		_, _ = ms.MinTransmissions(w.pairs[i][0], w.pairs[i][1]) // unreachable likewise
	})
	var runErr error
	_, m["sim.run_allocs"] = timeCalls(len(w.first), func(i int) {
		if pkt := w.first[i].Packet; pkt != nil {
			sc := sim.DefaultConfig()
			sc.Seed = w.seeds[i]
			if _, err := w.net.Engine().Run(pkt, sc); err != nil {
				runErr = err
			}
		}
	})
	if runErr != nil {
		return runErr
	}
	if w.preset == "gridtown" {
		m["runner.speedup_2w"] = w.speedup()
	}
	return nil
}

// simMetrics derives the event-loop statistics from the first lap's
// simulation results; meanRunNs is the measured mean time of one Engine.Run.
func simMetrics(m metrics, sims []sim.Result, meanRunNs float64) {
	var events, receptions, reached, lostDead, lookups, misses int
	for _, r := range sims {
		events += r.Broadcasts + r.Receptions
		receptions += r.Receptions
		reached += r.APsReached
		lostDead += r.LostToDeadAP
		// One kernel serves every AP of a run, so a message's conduit is
		// built on the first decision that needs it and found in the
		// kernel's cache by every later one.
		if l := int(r.Decisions.InConduit + r.Decisions.OutOfConduit + r.Decisions.BadRoute); l > 0 {
			lookups += l
			misses++
		}
	}
	if len(sims) == 0 || events == 0 {
		return
	}
	m["sim.events"] = float64(events) / float64(len(sims))
	m["sim.ns_per_event"] = meanRunNs * float64(len(sims)) / float64(events)
	m["sim.first_reception_frac"] = float64(reached) / float64(receptions)
	m["sim.lost_to_dead_ap_per_op"] = float64(lostDead) / float64(len(sims))
	if lookups > 0 {
		m["fwd.cache_hit_frac"] = 1 - float64(misses)/float64(lookups)
	}
}

// speedup is the time of one lap's sends on one runner.Map worker divided
// by their time on two workers sharing the network: the multicore row.
func (w *sendWorkload) speedup() float64 {
	run := func(workers int) float64 {
		t0 := time.Now()
		runner.Map(workers, len(w.pairs), func(i int) bool {
			sc := sim.DefaultConfig()
			sc.Seed = w.seeds[i]
			res, err := w.net.Send(w.pairs[i][0], w.pairs[i][1], w.payload, sc)
			return err == nil && res.Sim.Delivered
		})
		return time.Since(t0).Seconds()
	}
	return run(1) / run(2)
}
