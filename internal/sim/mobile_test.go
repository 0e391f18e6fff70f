package sim

import (
	"errors"
	"math"
	"sync"
	"testing"

	"citymesh/internal/geo"
	"citymesh/internal/mesh"
	"citymesh/internal/osm"
)

// gapCity builds one-AP buildings at the given x positions (range 50 m, so
// gaps wider than that partition the mesh).
func gapCity(xs []float64) (*osm.City, *mesh.Mesh) {
	city := &osm.City{Name: "gap"}
	for i, x := range xs {
		c := geo.Pt(x, 0)
		fp := geo.Polygon{
			c.Add(geo.Pt(-2, -2)), c.Add(geo.Pt(2, -2)),
			c.Add(geo.Pt(2, 2)), c.Add(geo.Pt(-2, 2)),
		}
		city.Buildings = append(city.Buildings, &osm.Feature{
			ID: osm.ID(i + 1), Kind: osm.KindBuilding, Footprint: fp, Centroid: c,
		})
	}
	cfg := mesh.DefaultConfig()
	cfg.Density = 1e-12
	return city, mesh.Place(city, cfg)
}

// pingPong is a test MobilePath shuttling between a and b forever.
type pingPong struct {
	a, b  geo.Point
	speed float64
}

func (p pingPong) PosAt(t float64) geo.Point {
	l := p.a.Dist(p.b)
	if l <= 0 {
		return p.a
	}
	d := math.Mod(t*p.speed, 2*l)
	if d > l {
		d = 2*l - d
	}
	return p.a.Lerp(p.b, d/l)
}

// parked is a test MobilePath that never moves.
type parked struct{ at geo.Point }

func (p parked) PosAt(float64) geo.Point { return p.at }

// twoIslands is two 3-AP clusters with a 220 m gap no radio can cross.
func twoIslands() (*osm.City, *mesh.Mesh) {
	return gapCity([]float64{0, 40, 80, 300, 340, 380})
}

func TestMobileCarrierBridgesPartition(t *testing.T) {
	city, m := twoIslands()
	// Sanity: without a carrier the gap is final.
	if res := run(t, m, city, floodAll{}, mkPacket(0, 5, 255), DefaultConfig()); res.Delivered {
		t.Fatal("220 m gap crossed without a carrier")
	}
	// A shuttle at 30 m/s starts inside the source island and crosses to
	// the far one at t = 10 s, rebroadcasting once a second as it goes.
	cfg := DefaultConfig()
	cfg.Mobiles = []Mobile{{Path: pingPong{a: geo.Pt(40, 0), b: geo.Pt(340, 0), speed: 30}}}
	res := run(t, m, city, floodAll{}, mkPacket(0, 5, 255), cfg)
	if !res.Delivered {
		t.Fatalf("shuttle failed to mule the packet across: %+v", res)
	}
	if res.MobilesReached != 1 {
		t.Errorf("MobilesReached = %d, want 1", res.MobilesReached)
	}
	if res.DeliveryTime < 5 {
		t.Errorf("delivery at %.3f s is faster than the shuttle can drive", res.DeliveryTime)
	}
	if res.APsReached != m.NumAPs() {
		t.Errorf("carrier flood reached %d/%d APs", res.APsReached, m.NumAPs())
	}
}

func TestParkedCarrierOutOfRangeHearsNothing(t *testing.T) {
	city, m := twoIslands()
	cfg := DefaultConfig()
	cfg.Mobiles = []Mobile{{Path: parked{at: geo.Pt(190, 0)}}} // mid-gap, 110 m from both islands
	res := run(t, m, city, floodAll{}, mkPacket(0, 5, 255), cfg)
	if res.MobilesReached != 0 {
		t.Errorf("out-of-range carrier picked the packet up: %+v", res)
	}
	if res.Delivered {
		t.Error("a parked mid-gap carrier cannot bridge anything")
	}
}

func TestMobileRunsAreDeterministic(t *testing.T) {
	city, m := twoIslands()
	cfg := DefaultConfig()
	cfg.Mobiles = []Mobile{{Path: pingPong{a: geo.Pt(40, 0), b: geo.Pt(340, 0), speed: 30}}}
	a := run(t, m, city, floodAll{}, mkPacket(0, 5, 255), cfg)
	b := run(t, m, city, floodAll{}, mkPacket(0, 5, 255), cfg)
	if a.Delivered != b.Delivered || a.DeliveryTime != b.DeliveryTime ||
		a.Broadcasts != b.Broadcasts || a.Receptions != b.Receptions {
		t.Errorf("same config diverged:\n%+v\n%+v", a, b)
	}
}

func TestOffsetPathShiftsClock(t *testing.T) {
	p := pingPong{a: geo.Pt(0, 0), b: geo.Pt(100, 0), speed: 10}
	off := OffsetPath{Base: p, Offset: 4}
	for _, tm := range []float64{0, 1.5, 7} {
		if got, want := off.PosAt(tm), p.PosAt(tm+4); got != want {
			t.Errorf("t=%v: OffsetPath %v, base at t+4 %v", tm, got, want)
		}
	}
}

func TestValidateRejectsBadMobiles(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mobiles = []Mobile{{}}
	if cfg.Validate() == nil {
		t.Error("nil Path must not validate")
	}
	cfg.Mobiles = []Mobile{{Path: parked{}, IntervalS: -1}}
	if cfg.Validate() == nil {
		t.Error("negative interval must not validate")
	}
	// Run must refuse rather than panic.
	city, m := twoIslands()
	cfg.Mobiles = []Mobile{{}}
	res, err := NewEngine(m, city, floodAll{}).Run(mkPacket(0, 5, 255), cfg)
	if !errors.Is(err, ErrBadMobile) {
		t.Errorf("invalid mobile config: err = %v, want ErrBadMobile", err)
	}
	if res.SourceAP != -1 {
		t.Error("invalid mobile config must yield the empty result")
	}
}

// runChecked runs a simulation with an invariant checker attached and
// returns the violations.
func runChecked(t testing.TB, m *mesh.Mesh, city *osm.City, cfg Config, src, dst int) []string {
	t.Helper()
	ic := NewInvariantChecker(m.NumAPs(), cfg)
	cfg.Probe = ic.Probe
	run(t, m, city, floodAll{}, mkPacket(src, dst, 32), cfg)
	return ic.Violations()
}

func TestInvariantsHoldUnderChurnAndMovement(t *testing.T) {
	city, m := twoIslands()
	cfg := DefaultConfig()
	cfg.Schedule = windowSchedule{ap: 1, from: 0.001, to: 4}
	cfg.Mobiles = []Mobile{
		{Path: pingPong{a: geo.Pt(40, 0), b: geo.Pt(340, 0), speed: 30}},
		{Path: parked{at: geo.Pt(80, 30)}, IntervalS: 0.5},
	}
	if v := runChecked(t, m, city, cfg, 0, 5); len(v) != 0 {
		t.Errorf("invariant violations under churn+movement:\n%v", v)
	}
}

func TestInvariantCheckerFlagsBadStreams(t *testing.T) {
	cfg := Config{FailedSet: mesh.NewNodeSet(8).Add(7)}
	cases := []struct {
		name   string
		events []ProbeEvent
	}{
		{"double accept", []ProbeEvent{
			{Kind: ProbeAccept, Node: 1, From: -1, TTL: 5},
			{Kind: ProbeAccept, Node: 1, From: -1, TTL: 5},
		}},
		{"ttl not decremented", []ProbeEvent{
			{Kind: ProbeAccept, Node: 1, From: -1, TTL: 5},
			{Kind: ProbeAccept, Node: 2, From: 1, TTL: 5},
		}},
		{"ttl increased", []ProbeEvent{
			{Kind: ProbeAccept, Node: 1, From: -1, TTL: 5},
			{Kind: ProbeAccept, Node: 2, From: 1, TTL: 9},
		}},
		{"accept at failed AP", []ProbeEvent{
			{Kind: ProbeAccept, Node: 7, From: -1, TTL: 5},
		}},
		{"transmit without accept", []ProbeEvent{
			{Kind: ProbeTransmit, Node: 3, From: -1, TTL: 4},
		}},
		{"transmit with exhausted ttl", []ProbeEvent{
			{Kind: ProbeAccept, Node: 1, From: -1, TTL: 0},
			{Kind: ProbeTransmit, Node: 1, From: -1, TTL: 0},
		}},
		{"deliver to failed AP", []ProbeEvent{
			{Kind: ProbeAccept, Node: 7, From: -1, TTL: 5},
			{Kind: ProbeDeliver, Node: 7},
		}},
		{"deliver without accept", []ProbeEvent{
			{Kind: ProbeDeliver, Node: 2},
		}},
	}
	for _, tc := range cases {
		ic := NewInvariantChecker(10, cfg)
		for _, e := range tc.events {
			ic.Probe(e)
		}
		if len(ic.Violations()) == 0 {
			t.Errorf("%s: stream passed the checker", tc.name)
		}
	}
	// A clean stream stays clean.
	ic := NewInvariantChecker(10, cfg)
	for _, e := range []ProbeEvent{
		{Kind: ProbeAccept, Node: 0, From: -1, TTL: 5},
		{Kind: ProbeTransmit, Node: 0, From: -1, TTL: 5},
		{Kind: ProbeAccept, Node: 1, From: 0, TTL: 4},
		{Kind: ProbeDeliver, Node: 1},
	} {
		ic.Probe(e)
	}
	if v := ic.Violations(); len(v) != 0 {
		t.Errorf("clean stream flagged: %v", v)
	}
}

// fuzzSchedule derives a per-AP outage window from fuzz bytes: AP i is
// down during [start + i*stagger, start + i*stagger + width).
type fuzzSchedule struct {
	bits                  uint16
	start, stagger, width float64
}

func (s fuzzSchedule) Down(ap int, t float64) bool {
	if ap < 0 || ap > 15 || s.bits&(1<<uint(ap)) == 0 {
		return false
	}
	from := s.start + float64(ap)*s.stagger
	return t >= from && t < from+s.width
}

func clampF(v, lo, hi float64) float64 {
	if math.IsNaN(v) || v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// FuzzInvariantsUnderChurn drives the engine through fuzzed churn windows,
// loss, and carrier movement, asserting the kernel invariants (loop
// freedom, strict TTL decrease, dead silence) hold for every input.
func FuzzInvariantsUnderChurn(f *testing.F) {
	f.Add(int64(1), uint16(0), 0.0, 0.0, 0.0, 30.0, 0.0)
	f.Add(int64(7), uint16(0b101010), 0.001, 0.002, 4.0, 25.0, 0.1)
	f.Add(int64(42), uint16(0xffff), 0.0, 0.01, 100.0, 1.0, 0.5)
	f.Fuzz(func(t *testing.T, seed int64, bits uint16, start, stagger, width, speed, loss float64) {
		city, m := twoIslands()
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.LossProb = clampF(loss, 0, 1)
		cfg.Schedule = fuzzSchedule{
			bits:    bits,
			start:   clampF(start, 0, 30),
			stagger: clampF(stagger, 0, 1),
			width:   clampF(width, 0, 30),
		}
		cfg.Mobiles = []Mobile{{
			Path:      pingPong{a: geo.Pt(40, 0), b: geo.Pt(340, 0), speed: clampF(speed, 0.1, 100)},
			IntervalS: 0.5,
		}}
		ic := NewInvariantChecker(m.NumAPs(), cfg)
		cfg.Probe = ic.Probe
		run(t, m, city, floodAll{}, mkPacket(0, 5, 32), cfg)
		if v := ic.Violations(); len(v) != 0 {
			t.Fatalf("invariants violated:\n%v", v)
		}
	})
}

// TestChurnMobilityStress runs concurrent simulations sharing one schedule
// and one carrier path, each with its own checker — the CI -race step
// drives it to prove the read-only sharing contract holds under movement.
func TestChurnMobilityStress(t *testing.T) {
	city, m := twoIslands()
	shared := fuzzSchedule{bits: 0b10110, start: 0.001, stagger: 0.003, width: 2}
	path := pingPong{a: geo.Pt(40, 0), b: geo.Pt(340, 0), speed: 30}
	var wg sync.WaitGroup
	eng := NewEngine(m, city, floodAll{}) // one engine, shared by every goroutine
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				cfg := DefaultConfig()
				cfg.Seed = int64(g*100 + i)
				cfg.Schedule = shared
				cfg.Mobiles = []Mobile{{Path: path}}
				ic := NewInvariantChecker(m.NumAPs(), cfg)
				cfg.Probe = ic.Probe
				if _, err := eng.Run(mkPacket(0, 5, 32), cfg); err != nil {
					errs <- err.Error()
				}
				for _, v := range ic.Violations() {
					errs <- v
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for v := range errs {
		t.Error(v)
	}
}
