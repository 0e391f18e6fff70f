package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"citymesh/internal/adversary"
	"citymesh/internal/agent"
	"citymesh/internal/core"
	"citymesh/internal/health"
	"citymesh/internal/mesh"
	"citymesh/internal/packet"
	"citymesh/internal/runner"
	"citymesh/internal/sim"
)

// ByzantineConfig scales the Byzantine-adversary experiment (PR 8): how much
// delivery does each misbehavior cost as the compromised fraction grows, and
// how much of that loss does the defense stack claw back?
type ByzantineConfig struct {
	// City is the preset name (default "gridtown" — a pure grid, so every
	// delivery change is attributable to the adversary, not geography).
	City string
	// Scale shrinks the preset extent (0 < Scale <= 1) for fast runs.
	Scale float64
	// Pairs is the number of building pairs per cell. Pairs whose endpoints
	// are themselves compromised are skipped — the question is whether
	// honest users can still talk, not whether a liar reports delivery.
	Pairs int
	// Seed drives sampling, adversary selection, and simulation randomness.
	Seed int64
	// Parallelism is the runner worker count; results are byte-identical
	// at any level.
	Parallelism int
}

// DefaultByzantineConfig is the evaluation setting.
func DefaultByzantineConfig() ByzantineConfig {
	return ByzantineConfig{
		City:  "gridtown",
		Pairs: 16,
		Seed:  1,
	}
}

// byzantineFracs are the compromised-AP fractions the sweep crosses with
// every misbehavior of adversary.Names.
var byzantineFracs = []float64{0, 0.1, 0.2, 0.3}

const (
	// byzantineTTL is the network TTL the defended arm enforces as MaxTTL.
	// It is far below packet.DefaultTTL so a TTL-resetter's inflated
	// frames are detectable.
	byzantineTTL uint8 = 64
	// grayholeDropProb is the grayhole per-frame drop probability.
	grayholeDropProb = 0.85
)

// ByzantineRow is one (behavior, fraction, arm) cell.
type ByzantineRow struct {
	City     string
	Behavior string
	Frac     float64
	// Defended is false for the undefended baseline arm (plain Send, no
	// receiver sanity stack) and true for the defended arm (SendReliable
	// with route-health memory, delivery-evidence audit, and the
	// DefaultDefense receiver stack).
	Defended bool
	// Pairs is the number of honest-endpoint pairs evaluated; Compromised
	// is the number of Byzantine APs in the cell.
	Pairs       int
	Compromised int
	// DeliveryRate is the fraction of pairs whose packet reached an honest
	// destination AP uncorrupted.
	DeliveryRate float64
	// BroadcastsP50 is the median real-frame transmission cost per pair.
	BroadcastsP50 float64
	// Adversary activity observed in the cell's probe runs.
	GrayholeDrops    int
	ReplayedFrames   int
	ForgedBroadcasts int
	// Defense activity: frames refused by the receiver sanity stack.
	RejectedTTL         int
	RejectedTampered    int
	RejectedRateLimited int
	RejectedGeocast     int
	// Invariant-checker attribution: violations involving a declared
	// Byzantine AP versus violations by honest APs. Honest violations are
	// engine bugs, and Byzantine makes the whole experiment fail.
	ByzantineViolations int
	HonestViolations    int
}

// ByzantineLiveResult is the live-agent leg: the same forged/replayed frame
// classes thrown at a real agent.HandleFrameFrom, with every rejection
// attributed to a per-cause drop counter (the PR-2 hardening path).
type ByzantineLiveResult struct {
	FramesSent         int
	Received           int
	DroppedReplayed    int
	DroppedTampered    int
	DroppedMalformed   int
	DroppedRateLimited int
	PanicsRecovered    int
}

// ByzantineResult bundles the simulation sweep with the live-agent leg.
type ByzantineResult struct {
	Rows []ByzantineRow
	Live ByzantineLiveResult
}

// Byzantine sweeps misbehaviors and compromised fractions, with defenses
// off versus on, and runs the live-agent leg. It errors if any honest AP
// trips a kernel invariant — under a declared adversary every violation
// must be attributable to a declared liar.
func Byzantine(cfg ByzantineConfig) (ByzantineResult, error) {
	cfg, n, allPairs, err := byzantineSetup(cfg)
	if err != nil {
		return ByzantineResult{}, err
	}
	out := ByzantineResult{Live: byzantineLive(n)}
	for bi, name := range adversary.Names() {
		for _, frac := range byzantineFracs {
			rows, err := byzantineArms(n, cfg, allPairs, bi, name, frac)
			out.Rows = append(out.Rows, rows...)
			if err != nil {
				return out, err
			}
		}
	}
	return out, nil
}

// byzantineSetup fills cfg's zero fields from DefaultByzantineConfig, loads
// its city and samples the pairs every cell draws its honest pairs from.
func byzantineSetup(cfg ByzantineConfig) (ByzantineConfig, *core.Network, [][2]int, error) {
	d := DefaultByzantineConfig()
	if cfg.City == "" {
		cfg.City = d.City
	}
	if cfg.Pairs <= 0 {
		cfg.Pairs = d.Pairs
	}
	if cfg.Seed == 0 {
		cfg.Seed = d.Seed
	}
	ccfg := core.DefaultConfig()
	ccfg.TTL = byzantineTTL
	n, err := loadCity(cfg.City, cfg.Scale, ccfg)
	if err != nil {
		return cfg, nil, nil, err
	}
	// Sample with slack: per-cell honest-endpoint filtering discards pairs
	// whose endpoints the adversary owns.
	allPairs, err := sampleReachablePairs(n, cfg.Seed, cfg.Pairs*2)
	return cfg, n, allPairs, err
}

// byzantineArms runs one (behavior, fraction) cell of the sweep: the
// undefended row, then the defended one. bi is the behavior's position in
// the sweep, which seeds the cell's adversary.
func byzantineArms(n *core.Network, cfg ByzantineConfig, allPairs [][2]int, bi int, name string, frac float64) ([]ByzantineRow, error) {
	b, err := adversary.Parse(name)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	// The adversary realization depends only on (behavior, frac) — both
	// arms of a cell face the exact same liars, so the defended-vs-
	// undefended delta is the defense's doing.
	advSeed := cfg.Seed*1009 + int64(bi+1)*101 + int64(math.Round(frac*100))
	asg := adversary.Select(n.Mesh, b, frac, advSeed)
	asg.Adversary.DropProb = grayholeDropProb
	// Bound the replay/forgery storms so a cell's event budget stays
	// proportional to its mesh, not to wall-clock horizons.
	asg.Adversary.ReplayInterval = 0.25
	asg.Adversary.ReplayHorizon = 2
	asg.Adversary.InjectRate = 2
	asg.Adversary.InjectHorizon = 2
	pairs := honestEndpointPairs(n.Mesh, asg.Adversary, allPairs, cfg.Pairs)
	var rows []ByzantineRow
	for _, defended := range []bool{false, true} {
		row := byzantineCell(n, cfg, name, frac, defended, pairs, asg, advSeed)
		rows = append(rows, row)
		if row.HonestViolations > 0 {
			return rows, fmt.Errorf(
				"experiments: %d honest-AP invariant violations in cell %s frac=%.2f defended=%v — engine bug",
				row.HonestViolations, name, frac, defended)
		}
	}
	return rows, nil
}

// honestEndpointPairs keeps pairs whose source building hosts only honest
// APs (so injection is honest) and whose destination hosts at least one
// honest AP (so delivery credit is possible), up to max pairs.
func honestEndpointPairs(m *mesh.Mesh, adv *sim.Adversary, pairs [][2]int, max int) [][2]int {
	var out [][2]int
	for _, p := range pairs {
		if len(out) >= max {
			break
		}
		srcHonest := true
		for _, ap := range m.APsInBuilding(p[0]) {
			if adv.BehaviorOf(int(ap)) != sim.BehaviorHonest {
				srcHonest = false
				break
			}
		}
		if !srcHonest {
			continue
		}
		dstHonest := false
		for _, ap := range m.APsInBuilding(p[1]) {
			if adv.BehaviorOf(int(ap)) == sim.BehaviorHonest {
				dstHonest = true
				break
			}
		}
		if dstHonest {
			out = append(out, p)
		}
	}
	return out
}

func byzantineCell(n *core.Network, cfg ByzantineConfig, behavior string, frac float64, defended bool, pairs [][2]int, asg adversary.Assignment, cellSeed int64) ByzantineRow {
	row := ByzantineRow{
		City: cfg.City, Behavior: behavior, Frac: frac, Defended: defended,
		Compromised: asg.NumCompromised(),
	}
	var def sim.Defense
	if defended {
		def = adversary.DefaultDefense(byzantineTTL)
	}
	type outcome struct {
		ran, delivered      bool
		cost                float64
		probe               sim.Result
		honestViol, byzViol int
	}
	outs := runner.Map(cfg.Parallelism, len(pairs), func(i int) outcome {
		p := pairs[i]
		seed := runner.TaskSeed(cellSeed, i)
		simCfg := sim.DefaultConfig()
		simCfg.Seed = seed
		asg.Apply(&simCfg)
		simCfg.Defense = def

		var o outcome
		// The probe run: one plain Send with the invariant checker attached.
		// Undefended, it IS the measured arm; defended, it only observes
		// (SendReliable spans several internal runs, which a single checker
		// cannot attribute), and its cost is not charged to the ladder.
		ic := sim.NewInvariantChecker(n.Mesh.NumAPs(), simCfg)
		probeCfg := simCfg
		probeCfg.Probe = ic.Probe
		res, err := n.Send(p[0], p[1], nil, probeCfg)
		if err != nil {
			return o
		}
		o.probe = res.Sim
		o.honestViol = ic.Total()
		o.byzViol = ic.ByzantineViolations()
		if !defended {
			o.ran = true
			o.delivered = res.Sim.Delivered
			o.cost = float64(res.Sim.Broadcasts)
			return o
		}
		hm := health.New(health.Config{})
		rc := core.DefaultReliableConfig()
		rc.Seed = seed
		rc.Health = hm
		rc.Evidence = true
		rr, err := n.SendReliable(p[0], p[1], nil, simCfg, rc)
		if err != nil {
			return o
		}
		o.ran = true
		o.delivered = rr.Delivered
		o.cost = float64(rr.TotalBroadcasts)
		return o
	})

	delivered := 0
	var costs []float64
	for _, o := range outs {
		if !o.ran {
			continue
		}
		row.Pairs++
		costs = append(costs, o.cost)
		if o.delivered {
			delivered++
		}
		row.GrayholeDrops += o.probe.GrayholeDrops
		row.ReplayedFrames += o.probe.ReplayedFrames
		row.ForgedBroadcasts += o.probe.ForgedBroadcasts
		row.RejectedTTL += o.probe.RejectedTTL
		row.RejectedTampered += o.probe.RejectedTampered
		row.RejectedRateLimited += o.probe.RejectedRateLimited
		row.RejectedGeocast += o.probe.RejectedGeocast
		row.ByzantineViolations += o.byzViol
		row.HonestViolations += o.honestViol
	}
	row.DeliveryRate = ratio(delivered, row.Pairs)
	row.BroadcastsP50 = p50(costs)
	return row
}

// byzantineLive throws the experiment's frame classes at a real agent: fresh
// frames, exact replays, TTL-inflated and conduit-corrupt forgeries, CRC
// garbage, and a single-source replay storm. The agent runs the hardened
// receive path (per-pair replay detection, kernel sanity, per-source rate
// limiting) under an injected clock, so the leg is fully deterministic.
func byzantineLive(n *core.Network) ByzantineLiveResult {
	now := time.Unix(1_000_000_000, 0)
	a := agent.New(agent.Config{
		ID: 1, Pos: n.Mesh.APs[0].Pos, Building: -1, City: n.City,
		MaxTTL: byzantineTTL, StrictSanity: true,
		NeighborRate: 8, NeighborBurst: 16,
		Clock: func() time.Time { return now },
	}, nil)

	mk := func(ttl uint8, msgID uint64, wps []uint32) []byte {
		wire, err := (&packet.Packet{
			Header:  packet.Header{TTL: ttl, MsgID: msgID, Waypoints: wps},
			Payload: []byte("byzantine-live"),
		}).Encode(nil)
		if err != nil {
			panic(err) // static inputs; cannot fail
		}
		return wire
	}
	var out ByzantineLiveResult
	send := func(src string, frame []byte) {
		a.HandleFrameFrom(src, frame)
		out.FramesSent++
	}

	// Fresh frames from an honest peer, one per second (under the rate).
	valid := make([][]byte, 20)
	for i := range valid {
		valid[i] = mk(8, uint64(1000+i), []uint32{0, 1})
		send("peer-honest", valid[i])
		now = now.Add(time.Second)
	}
	// The same frames again from the same source: replays, byte for byte.
	for _, f := range valid {
		send("peer-honest", f)
		now = now.Add(time.Second)
	}
	// Forgeries the kernel sanity check refuses: TTL inflated past the
	// network maximum, and a waypoint no city map contains.
	for i := 0; i < 10; i++ {
		send("peer-liar", mk(byzantineTTL+100, uint64(2000+i), []uint32{0, 1}))
		now = now.Add(time.Second)
	}
	for i := 0; i < 5; i++ {
		send("peer-liar", mk(8, uint64(3000+i), []uint32{0, 1 << 30}))
		now = now.Add(time.Second)
	}
	// CRC garbage.
	for i := 0; i < 5; i++ {
		bad := mk(8, uint64(4000+i), []uint32{0, 1})
		bad[len(bad)-1] ^= 0xFF
		send("peer-liar", bad)
		now = now.Add(time.Second)
	}
	// A frozen-clock storm from one source: everything past the burst
	// allowance is shed by the per-source limiter before decode.
	for i := 0; i < 50; i++ {
		send("peer-storm", mk(8, uint64(5000+i), []uint32{0, 1}))
	}

	st := a.Stats()
	out.Received = st.Received
	out.DroppedReplayed = st.DroppedReplayed
	out.DroppedTampered = st.DroppedTampered
	out.DroppedMalformed = st.DroppedMalformed
	out.DroppedRateLimited = st.DroppedRateLimited
	out.PanicsRecovered = st.PanicsRecovered
	return out
}

// ByzantineText renders the sweep and the live leg as an aligned report.
func ByzantineText(r ByzantineResult) string {
	var sb strings.Builder
	sb.WriteString("Byzantine adversaries: delivery vs compromised fraction, defenses off vs on\n")
	fmt.Fprintf(&sb, "%-10s %5s %-4s %5s %5s %7s %10s %9s %9s %9s\n",
		"behavior", "frac", "def", "pairs", "byz", "deliv", "bcast p50", "rejected", "byz viol", "hon viol")
	for _, row := range r.Rows {
		def := "off"
		if row.Defended {
			def = "on"
		}
		rejected := row.RejectedTTL + row.RejectedTampered + row.RejectedRateLimited + row.RejectedGeocast
		fmt.Fprintf(&sb, "%-10s %4.0f%% %-4s %5d %5d %6.1f%% %10.0f %9d %9d %9d\n",
			row.Behavior, 100*row.Frac, def, row.Pairs, row.Compromised,
			100*row.DeliveryRate, row.BroadcastsP50, rejected,
			row.ByzantineViolations, row.HonestViolations)
	}
	l := r.Live
	fmt.Fprintf(&sb, "live agent: %d frames -> %d accepted, drops: %d replayed, %d tampered, %d malformed, %d rate-limited (%d panics)\n",
		l.FramesSent, l.Received, l.DroppedReplayed, l.DroppedTampered,
		l.DroppedMalformed, l.DroppedRateLimited, l.PanicsRecovered)
	return sb.String()
}

// ByzantineCSV renders the sweep rows, then the live leg as a second
// key-value section separated by a blank line.
func ByzantineCSV(r ByzantineResult) string {
	var sb strings.Builder
	sb.WriteString("behavior,frac,defended,pairs,compromised,delivery_rate,bcast_p50," +
		"grayhole_drops,replayed_frames,forged_broadcasts," +
		"rejected_ttl,rejected_tampered,rejected_rate,rejected_geocast," +
		"byz_violations,honest_violations\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%s,%.2f,%v,%d,%d,%.4f,%.1f,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
			row.Behavior, row.Frac, row.Defended, row.Pairs, row.Compromised,
			row.DeliveryRate, row.BroadcastsP50,
			row.GrayholeDrops, row.ReplayedFrames, row.ForgedBroadcasts,
			row.RejectedTTL, row.RejectedTampered, row.RejectedRateLimited, row.RejectedGeocast,
			row.ByzantineViolations, row.HonestViolations)
	}
	l := r.Live
	sb.WriteString("\nlive_metric,value\n")
	fmt.Fprintf(&sb, "frames_sent,%d\nreceived,%d\ndropped_replayed,%d\ndropped_tampered,%d\ndropped_malformed,%d\ndropped_rate_limited,%d\npanics_recovered,%d\n",
		l.FramesSent, l.Received, l.DroppedReplayed, l.DroppedTampered,
		l.DroppedMalformed, l.DroppedRateLimited, l.PanicsRecovered)
	return sb.String()
}
