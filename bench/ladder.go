package main

import (
	"citymesh/internal/adversary"
	"citymesh/internal/citygen"
	"citymesh/internal/core"
	"citymesh/internal/faults"
	"citymesh/internal/sim"
	"citymesh/internal/stats"
)

// ladderWorkload is disaster-ladder: SendReliable on gridtown with a fifth
// of the APs dead and the receivers' defense stack on. The same layers as
// city-send, used differently: failure bitsets, replans, widened conduits,
// diverse paths and scoped floods.
type ladderWorkload struct {
	opt  options
	grid int // a lap is about grid^4 sends

	net     *core.Network
	inj     faults.Injection
	pairs   [][2]int
	seeds   []int64
	payload []byte

	first []core.ReliableResult
}

// The disaster takes down a fifth of the APs, the same ones for every seed:
// the damaged town is the fixture, and the seed draws the senders. How often
// the ladder escalates depends on which APs died, by more than any bound
// would allow from one disaster to the next.
const (
	failFrac     = 0.2
	disasterSeed = 1
)

func newLadderWorkload(o options, grid int) *ladderWorkload {
	return &ladderWorkload{opt: o, grid: o.grid(grid), payload: make([]byte, payloadBytes)}
}

func (w *ladderWorkload) sampleEvery() int { return 1 }

func (w *ladderWorkload) build(st *steps) error {
	spec, _ := citygen.Preset("gridtown")
	n, err := buildNetwork(spec, st)
	if err != nil {
		return err
	}
	w.net = n
	st.do("faults.inject", func() {
		w.inj, err = faults.Inject(n.Mesh, n.City, faults.Config{Mode: faults.ModeUniform, Frac: failFrac, Seed: disasterSeed})
	})
	return err
}

// live reports whether the disaster spared AP ap.
func (w *ladderWorkload) live(ap int32) bool { return !w.inj.FailedSet.Contains(int(ap)) }

func (w *ladderWorkload) generate() error {
	// The sender's AP, the first of its building, must be up to take the
	// message, and some AP of the destination building to receive it.
	m := w.net.Mesh
	w.pairs = stratifiedPairs(w.net.City, w.grid, w.opt.seed, func(src, dst int) bool {
		if !w.live(m.APsInBuilding(src)[0]) {
			return false
		}
		for _, ap := range m.APsInBuilding(dst) {
			if w.live(ap) {
				return true
			}
		}
		return false
	})
	w.seeds = opSeeds(w.opt.seed, len(w.pairs))
	return nil
}

func (w *ladderWorkload) prepare() error { return nil }

// simConfig is op i's simulator configuration: the disaster's failure set
// and the defended receivers.
func (w *ladderWorkload) simConfig(i int) sim.Config {
	sc := sim.DefaultConfig()
	sc.Seed = w.seeds[i]
	w.inj.ApplySet(&sc)
	sc.Defense = adversary.DefaultDefense(w.net.Cfg.TTL)
	return sc
}

func (w *ladderWorkload) lap(r *lapRec, tr *tracer) {
	for i, p := range w.pairs {
		sc := w.simConfig(i)
		rc := core.DefaultReliableConfig()
		rc.Seed = w.seeds[i]
		r.begin()
		// SendReliable stays one span: its attempts are annotated from the
		// result, and its inner layers are timed by separate calls.
		tr.nextOp()
		tr.begin(spSendReliable)
		res, err := w.net.SendReliable(p[0], p[1], w.payload, sc, rc)
		tr.end()
		if err == nil && r.record {
			w.first = append(w.first, res)
		}
		r.end(ladderOutcome(res), err)
	}
}

func ladderOutcome(res core.ReliableResult) outcome {
	h := newHasher().bool(res.Delivered).int(int(res.Rung)).int(res.TotalBroadcasts).float(res.TotalBackoff)
	var delivery float64
	for _, a := range res.Attempts {
		h = h.int(int(a.Rung)).int(a.Broadcasts).bool(a.Delivered).float(a.DeliveryTime).float(a.Backoff)
		if a.Delivered && delivery == 0 {
			delivery = a.DeliveryTime
		}
	}
	h = hashSim(h, res.FirstAttempt.Sim).int(res.FirstAttempt.IdealTransmissions)
	o := outcome{hash: uint64(h), delivered: res.Delivered, tx: res.TotalBroadcasts}
	if res.FirstAttempt.Packet != nil {
		o.hdrBytes = res.FirstAttempt.Packet.Header.EncodedLen()
	}
	if res.Delivered {
		// What the sender waits: every backoff, then the delivering wave.
		o.simMs = (res.TotalBackoff + delivery) * 1e3
	}
	return o
}

func (w *ladderWorkload) check() error { return nil }

func (w *ladderWorkload) layers(m metrics, tr *tracer, st *steps) error {
	networkSteps(m, st)
	m["faults.inject_ms"], _, _ = st.cost("faults.inject")
	m["core.send_reliable_us"] = tr.meanUs(spSendReliable)

	var attempts int
	var rungs [core.NumRungs + 1]int
	var backoffs []float64
	var firstSims []sim.Result
	for _, res := range w.first {
		attempts += len(res.Attempts)
		rungs[res.Rung]++
		backoffs = append(backoffs, res.TotalBackoff)
		firstSims = append(firstSims, res.FirstAttempt.Sim)
	}
	sends := float64(len(w.first))
	m["core.attempts_per_send"] = float64(attempts) / sends
	m["core.us_per_attempt"] = m["core.send_reliable_us"] * sends / float64(attempts)
	for rung, name := range map[core.Rung]string{
		core.RungDirect: "direct", core.RungRetry: "retry", core.RungWiden: "widen",
		core.RungMultipath: "multipath", core.RungFlood: "flood", core.RungExhausted: "exhausted",
	} {
		m["core.rung_"+name+"_frac"] = float64(rungs[rung]) / sends
	}
	m["core.backoff_s_p50"] = stats.Percentile(backoffs, 50)

	// The ladder's inner layers, by separate calls on the first pairs.
	n := min(len(w.pairs), w.opt.size(256))
	g, ms := w.net.Graph, w.net.Mesh
	ns, allocs := timeCalls(n, func(i int) {
		_, _, _ = g.ShortestPath(w.pairs[i][0], w.pairs[i][1]) // no path is an outcome here, not an error
	})
	m["buildinggraph.shortest_path_us"], m["buildinggraph.shortest_path_allocs"] = ns/1e3, allocs
	ns, _ = timeCalls(n, func(i int) {
		// 3 routes at penalty 16 is what the multipath rung asks for.
		_, _ = g.DiversePaths(w.pairs[i][0], w.pairs[i][1], 3, 16)
	})
	m["buildinggraph.diverse_paths_us"] = ns / 1e3
	ns, allocs = timeCalls(n, func(i int) {
		_, _ = ms.MinTransmissions(w.pairs[i][0], w.pairs[i][1]) // unreachable likewise
	})
	m["mesh.min_tx_us"], m["mesh.min_tx_allocs"] = ns/1e3, allocs

	// The first attempt's wave again, with the defense stack and without.
	var runErr error
	run := func(defended bool) (float64, float64) {
		return timeCalls(n, func(i int) {
			pkt := w.first[i].FirstAttempt.Packet
			if pkt == nil {
				return
			}
			sc := w.simConfig(i)
			if !defended {
				sc.Defense = sim.Defense{}
			}
			if _, err := w.net.Engine().Run(pkt, sc); err != nil {
				runErr = err
			}
		})
	}
	withNs, withAllocs := run(true)
	withoutNs, _ := run(false)
	if runErr != nil {
		return runErr
	}
	m["sim.run_us"], m["sim.run_allocs"] = withNs/1e3, withAllocs
	m["sim.defense_overhead_frac"] = 1 - withoutNs/withNs
	simMetrics(m, firstSims, withNs)
	return nil
}
