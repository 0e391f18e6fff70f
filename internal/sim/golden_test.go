package sim_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"citymesh/internal/adversary"
	"citymesh/internal/citygen"
	"citymesh/internal/core"
	"citymesh/internal/geo"
	"citymesh/internal/mesh"
	"citymesh/internal/packet"
	"citymesh/internal/routing"
	"citymesh/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/engine_golden.json from the engine under test")

const goldenPath = "testdata/engine_golden.json"

// The golden file pins every sim.Result field of the event loop on a small
// town, one scenario per engine code path whose event order or RNG draw
// sequence a rewrite could disturb. It was recorded from the engine that
// pushed one heap event per reception; any engine must reproduce it
// exactly. Regenerate (after a deliberate behaviour change only) with
//
//	go test ./internal/sim -run TestEngineGolden -update
type goldenFile struct {
	// Scenarios maps a scenario name to its results, one per (pair, seed)
	// in the order goldenRuns issues them.
	Scenarios map[string][]sim.Result `json:"scenarios"`
	// MaxEvents maps a sweep name to the FNV-64a digests of the JSON of the
	// result at MaxEvents = 1, 2, ..., so a truncation that lands inside a
	// transmission's receptions is pinned at every position.
	MaxEvents map[string][]string `json:"max_events"`
}

// churn takes an AP down for whole periods chosen by a hash of (AP, period
// index): about one AP in five is down at any instant, and most flip during
// a run.
type churn struct{ period float64 }

func (c churn) Down(ap int, t float64) bool {
	x := uint64(ap)*0x9e3779b97f4a7c15 + uint64(int64(t/c.period))*0xbf58476d1ce4e5b9
	x ^= x >> 29
	x *= 0x94d049bb133111eb
	x ^= x >> 32
	return x%5 == 0
}

// shuttle moves back and forth between two points at a constant speed.
type shuttle struct {
	a, b  geo.Point
	speed float64
}

func (s shuttle) PosAt(t float64) geo.Point {
	leg := s.a.Dist(s.b) / s.speed
	f := t / leg
	n := int(f)
	f -= float64(n)
	if n%2 == 1 {
		f = 1 - f
	}
	return s.a.Lerp(s.b, f)
}

type goldenScenario struct {
	name string
	pol  func() sim.Policy
	cfg  func(n *core.Network, pkt *packet.Packet) sim.Config
	// sweep, when not zero, also records the scenario at MaxEvents = 1, 2,
	// ... up to sweep, or up to the end of the run when sweep is wholeRun
	// (for a scenario whose pops are exactly Broadcasts + Receptions).
	sweep int
}

const wholeRun = -1

func goldenScenarios() []goldenScenario {
	cityMesh := func() sim.Policy { return routing.NewCityMesh() }
	// Two carriers shuttle along the straight line between the packet's end
	// buildings, fast enough to cross the wave while it lasts.
	mobiles := func(n *core.Network, pkt *packet.Packet) []sim.Mobile {
		src := n.City.Buildings[pkt.Header.Src()].Centroid
		dst := n.City.Buildings[pkt.Header.Dst()].Centroid
		return []sim.Mobile{
			{Path: shuttle{a: src, b: dst, speed: 4000}, IntervalS: 0.01, HorizonS: 0.4},
			{Path: shuttle{a: dst, b: src.Lerp(dst, 0.3), speed: 2500}, IntervalS: 0.015, HorizonS: 0.4},
		}
	}
	adv := func(n *core.Network) *sim.Adversary {
		a := &sim.Adversary{
			Behaviors:      map[int]sim.APBehavior{},
			ReplayInterval: 0.02, ReplayHorizon: 0.3,
			InjectRate: 40, InjectHorizon: 0.2, ForgedTTL: 6,
		}
		for ap := 0; ap < n.Mesh.NumAPs(); ap++ {
			switch {
			case ap%61 == 7:
				a.Behaviors[ap] = sim.BehaviorFlooder
			case ap%9 == 4:
				a.Behaviors[ap] = sim.BehaviorReplayer
			}
		}
		return a
	}
	failed := func(n *core.Network) mesh.NodeSet {
		s := mesh.NewNodeSet(n.Mesh.NumAPs())
		for ap := 5; ap < n.Mesh.NumAPs(); ap += 11 {
			s = s.Add(ap)
		}
		return s
	}
	return []goldenScenario{
		{"zero-jitter", cityMesh, func(*core.Network, *packet.Packet) sim.Config {
			c := sim.DefaultConfig()
			c.JitterMax = 0
			return c
		}, 0},
		{"zero-delay-flood", func() sim.Policy { return routing.Flood{} }, func(*core.Network, *packet.Packet) sim.Config {
			c := sim.DefaultConfig()
			c.JitterMax, c.TxDelay = 0, 0
			return c
		}, 0},
		{"loss", cityMesh, func(*core.Network, *packet.Packet) sim.Config {
			c := sim.DefaultConfig()
			c.LossProb = 0.25
			return c
		}, wholeRun},
		{"collision", cityMesh, func(*core.Network, *packet.Packet) sim.Config {
			c := sim.DefaultConfig()
			c.CollisionWindow = 0.0005
			return c
		}, 0},
		{"failed-churn", cityMesh, func(n *core.Network, pkt *packet.Packet) sim.Config {
			c := sim.DefaultConfig()
			c.FailedSet = failed(n).Add(3).Add(14)
			c.Schedule = churn{period: 0.004}
			return c
		}, 0},
		{"mobiles", cityMesh, func(n *core.Network, pkt *packet.Packet) sim.Config {
			c := sim.DefaultConfig()
			c.LossProb = 0.1
			c.FailedSet = failed(n)
			c.Mobiles = mobiles(n, pkt)
			return c
		}, 0},
		{"adversary-defense", cityMesh, func(n *core.Network, pkt *packet.Packet) sim.Config {
			c := sim.DefaultConfig()
			c.Adversary = adv(n)
			c.Defense = adversary.DefaultDefense(packet.DefaultTTL)
			return c
		}, 0},
		{"adversary-undefended", cityMesh, func(n *core.Network, pkt *packet.Packet) sim.Config {
			c := sim.DefaultConfig()
			c.Adversary = adv(n)
			c.MaxEvents = 20000
			return c
		}, 0},
		{"pathloss-grid", cityMesh, func(*core.Network, *packet.Packet) sim.Config {
			c := sim.DefaultConfig()
			c.Radio = sim.DefaultPathLoss() // cutoff 65 m: beyond the 50 m adjacency rows
			return c
		}, 0},
		{"pathloss-short", cityMesh, func(*core.Network, *packet.Packet) sim.Config {
			c := sim.DefaultConfig()
			c.Radio = sim.PathLossModel{ReliableRange: 20, CutoffRange: 50, Exponent: 2} // cutoff == mesh range, fading inside it
			return c
		}, 0},
		{"unicast-greedy", func() sim.Policy { return routing.GreedyGeo{Fallback: true} }, func(*core.Network, *packet.Packet) sim.Config {
			c := sim.DefaultConfig()
			c.LossProb = 0.05
			return c
		}, 0},
		{"kitchen-sink", cityMesh, func(n *core.Network, pkt *packet.Packet) sim.Config {
			c := sim.DefaultConfig()
			c.LossProb = 0.1
			c.CollisionWindow = 0.0002
			c.FailedSet = failed(n)
			c.Schedule = churn{period: 0.004}
			c.Mobiles = mobiles(n, pkt)
			c.Adversary = adv(n)
			c.Defense = adversary.DefaultDefense(packet.DefaultTTL)
			return c
		}, 1500},
	}
}

// goldenNet builds the small test town and the packets of the first few
// building pairs the map routes.
func goldenNet(t *testing.T) (*core.Network, []*packet.Packet) {
	t.Helper()
	n, err := core.FromSpec(citygen.SmallTestSpec(1), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := n.RandomPairs(1, 40)
	if err != nil {
		t.Fatal(err)
	}
	var pkts []*packet.Packet
	for _, p := range pairs {
		r, err := n.PlanRoute(p[0], p[1])
		if err != nil {
			continue
		}
		pkt, err := n.NewPacket(r, make([]byte, 64))
		if err != nil {
			t.Fatal(err)
		}
		if pkts = append(pkts, pkt); len(pkts) == 5 {
			break
		}
	}
	if len(pkts) < 5 {
		t.Fatalf("only %d routable pairs", len(pkts))
	}
	return n, pkts
}

func digest(t *testing.T, r sim.Result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenRuns produces everything the golden file holds from the engine
// under test.
func goldenRuns(t *testing.T) goldenFile {
	n, pkts := goldenNet(t)
	out := goldenFile{Scenarios: map[string][]sim.Result{}, MaxEvents: map[string][]string{}}
	for _, sc := range goldenScenarios() {
		// One engine per scenario: the second and later runs reuse the
		// pooled scratch, so the goldens also pin warm == cold.
		eng := sim.NewEngine(n.Mesh, n.City, sc.pol())
		for _, pkt := range pkts {
			for seed := int64(1); seed <= 2; seed++ {
				cfg := sc.cfg(n, pkt)
				cfg.Seed = seed
				res, err := eng.Run(pkt, cfg)
				if err != nil {
					t.Fatalf("%s: %v", sc.name, err)
				}
				out.Scenarios[sc.name] = append(out.Scenarios[sc.name], res)
			}
		}
	}
	// MaxEvents sweeps: "loss" stops a plain wave at every one of its
	// events; "kitchen-sink" mixes batches of APs and carriers, forged waves
	// and rejections.
	for _, sc := range goldenScenarios() {
		if sc.sweep == 0 {
			continue
		}
		eng := sim.NewEngine(n.Mesh, n.City, sc.pol())
		cfg := sc.cfg(n, pkts[0])
		cfg.Seed = 3
		limit := sc.sweep
		if limit == wholeRun {
			full, err := eng.Run(pkts[0], cfg)
			if err != nil {
				t.Fatal(err)
			}
			limit = full.Broadcasts + full.Receptions + 2
		}
		for k := 1; k <= limit; k++ {
			cfg.MaxEvents = k
			res, err := eng.Run(pkts[0], cfg)
			if err != nil {
				t.Fatal(err)
			}
			out.MaxEvents[sc.name] = append(out.MaxEvents[sc.name], digest(t, res))
		}
	}
	return out
}

// encode writes the file as JSON with one result, or eight digests, per
// line, names sorted: compact enough to commit, line-oriented enough to diff.
func (f goldenFile) encode(t *testing.T) []byte {
	t.Helper()
	var b bytes.Buffer
	section := func(title string, names []string, body func(name string) []string, last bool) {
		sort.Strings(names)
		fmt.Fprintf(&b, " %q: {\n", title)
		for i, name := range names {
			fmt.Fprintf(&b, "  %q: [\n   %s\n  ]", name, strings.Join(body(name), ",\n   "))
			if i < len(names)-1 {
				b.WriteByte(',')
			}
			b.WriteByte('\n')
		}
		b.WriteString(" }")
		if !last {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("{\n")
	var scenarios, sweeps []string
	for name := range f.Scenarios {
		scenarios = append(scenarios, name)
	}
	for name := range f.MaxEvents {
		sweeps = append(sweeps, name)
	}
	section("scenarios", scenarios, func(name string) []string {
		var lines []string
		for _, r := range f.Scenarios[name] {
			j, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, string(j))
		}
		return lines
	}, false)
	section("max_events", sweeps, func(name string) []string {
		var lines []string
		cuts := f.MaxEvents[name]
		for i := 0; i < len(cuts); i += 8 {
			row := cuts[i:min(i+8, len(cuts))]
			lines = append(lines, `"`+strings.Join(row, `", "`)+`"`)
		}
		return lines
	}, true)
	b.WriteString("}\n")
	return b.Bytes()
}

func TestEngineGolden(t *testing.T) {
	got := goldenRuns(t)
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got.encode(t), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
		return
	}
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	var want goldenFile
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}

	names := make([]string, 0, len(want.Scenarios))
	for name := range want.Scenarios {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(got.Scenarios) != len(want.Scenarios) {
		t.Errorf("%d scenarios run, %d in the golden file", len(got.Scenarios), len(want.Scenarios))
	}
	for _, name := range names {
		g, w := got.Scenarios[name], want.Scenarios[name]
		if len(g) != len(w) {
			t.Errorf("%s: %d results, golden has %d", name, len(g), len(w))
			continue
		}
		for i := range w {
			if !reflect.DeepEqual(g[i], w[i]) {
				t.Errorf("%s run %d diverges from the golden\n got: %+v\nwant: %+v", name, i, g[i], w[i])
				break
			}
		}
	}
	for name, w := range want.MaxEvents {
		g := got.MaxEvents[name]
		if len(g) != len(w) {
			t.Errorf("MaxEvents sweep %s: %d cuts, golden has %d", name, len(g), len(w))
			continue
		}
		for k := range w {
			if g[k] != w[k] {
				t.Errorf("MaxEvents sweep %s: result at MaxEvents=%d diverges from the golden", name, k+1)
				break
			}
		}
	}
}

// TestEngineGoldenCoversEveryPath guards the golden file itself: each
// scenario must actually exercise what its name says, or the pin is empty.
func TestEngineGoldenCoversEveryPath(t *testing.T) {
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Skip("no golden file yet")
	}
	var f goldenFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	sum := func(name string, field func(sim.Result) int) int {
		total := 0
		for _, r := range f.Scenarios[name] {
			total += field(r)
		}
		return total
	}
	checks := []struct {
		scenario, what string
		field          func(sim.Result) int
	}{
		{"zero-jitter", "receptions", func(r sim.Result) int { return r.Receptions }},
		{"loss", "LostToLoss", func(r sim.Result) int { return r.LostToLoss }},
		{"collision", "LostToCollision", func(r sim.Result) int { return r.LostToCollision }},
		{"failed-churn", "LostToDeadAP", func(r sim.Result) int { return r.LostToDeadAP }},
		{"mobiles", "MobilesReached", func(r sim.Result) int { return r.MobilesReached }},
		{"adversary-defense", "RejectedRateLimited", func(r sim.Result) int { return r.RejectedRateLimited }},
		{"adversary-defense", "ForgedAccepts", func(r sim.Result) int { return r.ForgedAccepts }},
		{"adversary-defense", "ReplayedFrames", func(r sim.Result) int { return r.ReplayedFrames }},
		{"adversary-undefended", "ForgedBroadcasts", func(r sim.Result) int { return r.ForgedBroadcasts }},
		{"pathloss-grid", "LostToRange", func(r sim.Result) int { return r.LostToRange }},
		{"pathloss-short", "LostToRange", func(r sim.Result) int { return r.LostToRange }},
		{"unicast-greedy", "broadcasts", func(r sim.Result) int { return r.Broadcasts }},
		{"kitchen-sink", "MobilesReached", func(r sim.Result) int { return r.MobilesReached }},
		{"kitchen-sink", "RejectedRateLimited", func(r sim.Result) int { return r.RejectedRateLimited }},
	}
	for _, c := range checks {
		if sum(c.scenario, c.field) == 0 {
			t.Errorf("golden scenario %s records no %s: it does not exercise its path", c.scenario, c.what)
		}
	}
	for name, cuts := range f.MaxEvents {
		distinct := map[string]bool{}
		for _, d := range cuts {
			distinct[d] = true
		}
		if len(distinct) < len(cuts)/4 {
			t.Errorf("MaxEvents sweep %s: only %d distinct results over %d cuts", name, len(distinct), len(cuts))
		}
	}
}
