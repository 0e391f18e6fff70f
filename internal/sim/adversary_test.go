package sim

import (
	"reflect"
	"sync"
	"testing"

	"citymesh/internal/geo"
)

func TestNilAdversaryIsExactBaseline(t *testing.T) {
	city, m := chainCity(8, 40)
	base := run(t, m, city, floodAll{}, mkPacket(0, 7, 255), DefaultConfig())

	cfg := DefaultConfig()
	cfg.Adversary = &Adversary{} // empty behaviors: no misbehavior, no RNG drift
	got := run(t, m, city, floodAll{}, mkPacket(0, 7, 255), cfg)
	if !reflect.DeepEqual(base, got) {
		t.Fatalf("empty adversary changed the run:\nbase %+v\ngot  %+v", base, got)
	}
}

func TestBlackholeBehaviorCutsChain(t *testing.T) {
	city, m := chainCity(5, 40)
	cfg := DefaultConfig()
	cfg.Adversary = &Adversary{Behaviors: map[int]APBehavior{2: BehaviorBlackhole}}
	res := run(t, m, city, floodAll{}, mkPacket(0, 4, 255), cfg)
	if res.Delivered {
		t.Error("blackhole midpoint should cut the chain")
	}
	// Unlike a failed AP, the blackhole *receives* (it is not down).
	if res.APsReached != 3 { // 0, 1, and the blackhole itself
		t.Errorf("reached = %d, want 3", res.APsReached)
	}
}

func TestGrayholeDropsAreCounted(t *testing.T) {
	city, m := chainCity(5, 40)
	cfg := DefaultConfig()
	cfg.Adversary = &Adversary{
		Behaviors: map[int]APBehavior{2: BehaviorGrayhole},
		DropProb:  1.0, // always drops: a blackhole wearing a disguise
	}
	res := run(t, m, city, floodAll{}, mkPacket(0, 4, 255), cfg)
	if res.Delivered {
		t.Error("p=1 grayhole should cut the chain")
	}
	if res.GrayholeDrops != 1 {
		t.Errorf("GrayholeDrops = %d, want 1", res.GrayholeDrops)
	}
}

func TestByzantineDestinationGetsNoDeliveryCredit(t *testing.T) {
	city, m := chainCity(4, 40)
	cfg := DefaultConfig()
	cfg.Adversary = &Adversary{Behaviors: map[int]APBehavior{3: BehaviorBlackhole}}
	res := run(t, m, city, floodAll{}, mkPacket(0, 3, 255), cfg)
	if res.Delivered {
		t.Error("a packet held only by a compromised destination AP is not delivered")
	}
	if res.CompromisedDeliveries != 1 {
		t.Errorf("CompromisedDeliveries = %d, want 1", res.CompromisedDeliveries)
	}
}

func TestTTLResetTripsDefenseAndChecker(t *testing.T) {
	city, m := chainCity(6, 40)

	// Undefended: the resetter's inflated frames propagate and deliver,
	// and the invariant checker attributes the strict-decrement breach to
	// the declared-Byzantine AP — honest counts stay clean.
	cfg := DefaultConfig()
	cfg.Adversary = &Adversary{
		Behaviors: map[int]APBehavior{2: BehaviorTTLReset},
		ResetTTL:  200,
	}
	ic := NewInvariantChecker(m.NumAPs(), cfg)
	cfg.Probe = ic.Probe
	res := run(t, m, city, floodAll{}, mkPacket(0, 5, 8), cfg)
	if !res.Delivered {
		t.Fatal("undefended chain should still deliver")
	}
	if ic.ByzantineViolations() == 0 {
		t.Error("TTL reset should trip the strict-decrement invariant as Byzantine")
	}
	if ic.Total() != 0 || len(ic.Violations()) != 0 {
		t.Errorf("honest violations = %d (%v), want none", ic.Total(), ic.Violations())
	}

	// Defended: MaxTTL set to the injected TTL rejects every frame the
	// resetter touched, cutting the chain at the liar.
	cfg.Probe = nil
	cfg.Defense = Defense{MaxTTL: 8}
	res = run(t, m, city, floodAll{}, mkPacket(0, 5, 8), cfg)
	if res.Delivered {
		t.Error("MaxTTL defense should refuse the resetter's inflated frames")
	}
	if res.RejectedTTL == 0 {
		t.Error("no RejectedTTL counted")
	}
}

func TestCorruptorTaintAndTamperCheck(t *testing.T) {
	city, m := chainCity(5, 40)

	// Undefended: the corrupted copy reaches the destination first, the
	// honest dst AP accepts it, and its dedup suppresses the truth — a
	// tainted delivery, not a real one.
	cfg := DefaultConfig()
	cfg.Adversary = &Adversary{Behaviors: map[int]APBehavior{2: BehaviorCorruptor}}
	res := run(t, m, city, floodAll{}, mkPacket(0, 4, 255), cfg)
	if res.Delivered {
		t.Error("corrupted payload must not count as delivery")
	}
	if res.TaintedDeliveries != 1 {
		t.Errorf("TaintedDeliveries = %d, want 1", res.TaintedDeliveries)
	}
	if res.TaintedAccepts == 0 {
		t.Error("no tainted accepts recorded downstream of the corruptor")
	}

	// TamperCheck drops tainted frames at honest receivers instead.
	cfg.Defense = Defense{TamperCheck: true}
	res = run(t, m, city, floodAll{}, mkPacket(0, 4, 255), cfg)
	if res.TaintedDeliveries != 0 {
		t.Errorf("TamperCheck on: TaintedDeliveries = %d, want 0", res.TaintedDeliveries)
	}
	if res.RejectedTampered == 0 {
		t.Error("no RejectedTampered counted")
	}
}

func TestReplayerStormAndRateGate(t *testing.T) {
	city, m := chainCity(4, 40)
	cfg := DefaultConfig()
	cfg.Adversary = &Adversary{
		Behaviors:      map[int]APBehavior{1: BehaviorReplayer},
		ReplayInterval: 0.05,
		ReplayHorizon:  2,
	}
	res := run(t, m, city, floodAll{}, mkPacket(0, 3, 255), cfg)
	if !res.Delivered {
		t.Fatal("a replayer still forwards; delivery must succeed")
	}
	if res.ReplayedFrames < 10 {
		t.Errorf("ReplayedFrames = %d, want a storm", res.ReplayedFrames)
	}
	stormRx := res.Receptions

	cfg.Defense = Defense{NeighborRate: 1, NeighborBurst: 2}
	res = run(t, m, city, floodAll{}, mkPacket(0, 3, 255), cfg)
	if !res.Delivered {
		t.Fatal("rate gate must not break first-time delivery")
	}
	if res.RejectedRateLimited == 0 {
		t.Error("replay storm above the per-neighbor rate should be rejected")
	}
	if res.Receptions >= stormRx {
		t.Errorf("rate gate did not shed load: %d receptions vs %d undefended",
			res.Receptions, stormRx)
	}
}

func TestFlooderForgedWaveIsolatedFromRealMetrics(t *testing.T) {
	city, m := chainCity(6, 40)
	base := run(t, m, city, floodAll{}, mkPacket(0, 5, 255), DefaultConfig())

	cfg := DefaultConfig()
	cfg.Adversary = &Adversary{
		Behaviors:     map[int]APBehavior{3: BehaviorFlooder},
		InjectRate:    5,
		InjectHorizon: 2,
	}
	res := run(t, m, city, floodAll{}, mkPacket(0, 5, 255), cfg)
	if !res.Delivered {
		t.Fatal("forged traffic must not break real delivery")
	}
	if res.ForgedBroadcasts == 0 || res.ForgedAccepts == 0 {
		t.Errorf("forged wave not propagating: %+v", res)
	}
	// The legacy broadcast metric keeps meaning real-packet transmissions.
	if res.Broadcasts != base.Broadcasts {
		t.Errorf("forged frames leaked into Broadcasts: %d vs %d", res.Broadcasts, base.Broadcasts)
	}
}

func TestSpooferGeocastRadiusDefense(t *testing.T) {
	city, m := chainCity(8, 40)
	cfg := DefaultConfig()
	cfg.Adversary = &Adversary{
		Behaviors:     map[int]APBehavior{0: BehaviorSpoofer},
		InjectRate:    2,
		InjectHorizon: 1,
	}
	res := run(t, m, city, silent{}, mkPacket(6, 7, 255), cfg)
	if res.ForgedAccepts == 0 {
		t.Fatal("unchecked spoofed geocast should recruit honest APs")
	}
	open := res.ForgedAccepts

	cfg.Defense = Defense{MaxGeocastRadius: 2000}
	res = run(t, m, city, silent{}, mkPacket(6, 7, 255), cfg)
	if res.RejectedGeocast == 0 {
		t.Error("metro-scale geocast claim should be rejected")
	}
	if res.ForgedAccepts != 0 {
		t.Errorf("defended ForgedAccepts = %d, want 0 (open run had %d)", res.ForgedAccepts, open)
	}
}

func TestAdversaryRunsAreDeterministic(t *testing.T) {
	city, m := chainCity(10, 40)
	mk := func() Config {
		cfg := DefaultConfig()
		cfg.Seed = 77
		cfg.LossProb = 0.1
		cfg.Adversary = &Adversary{
			Behaviors: map[int]APBehavior{
				2: BehaviorGrayhole,
				4: BehaviorReplayer,
				6: BehaviorFlooder,
				8: BehaviorTTLReset,
			},
		}
		cfg.Defense = Defense{MaxTTL: 64, TamperCheck: true, NeighborRate: 4}
		return cfg
	}
	a := run(t, m, city, floodAll{}, mkPacket(0, 9, 64), mk())
	for i := 0; i < 3; i++ {
		b := run(t, m, city, floodAll{}, mkPacket(0, 9, 64), mk())
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("run %d diverged:\n%+v\n%+v", i, a, b)
		}
	}
}

func TestValidateAdversaryAndDefense(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Adversary = &Adversary{DropProb: 1.5}
	if err := cfg.Validate(); err == nil {
		t.Error("DropProb 1.5 should fail validation")
	}
	cfg = DefaultConfig()
	cfg.Adversary = &Adversary{Behaviors: map[int]APBehavior{0: numBehaviors}}
	if err := cfg.Validate(); err == nil {
		t.Error("unknown behavior should fail validation")
	}
	cfg = DefaultConfig()
	cfg.Defense = Defense{NeighborRate: -1}
	if err := cfg.Validate(); err == nil {
		t.Error("negative defense rate should fail validation")
	}
	cfg = DefaultConfig()
	cfg.Adversary = &Adversary{
		Behaviors: map[int]APBehavior{1: BehaviorGrayhole},
		DropProb:  0.8,
	}
	cfg.Defense = Defense{MaxTTL: 64}
	if err := cfg.Validate(); err != nil {
		t.Errorf("legitimate adversary config rejected: %v", err)
	}
}

// TestByzantineChurnMobilityStress mixes every misbehavior with a shared
// churn schedule and a shared mobile carrier across concurrent runs — the
// CI -race step drives it to prove the read-only sharing contract extends
// to the Adversary, and that honest APs never trip an invariant even while
// liars, rubble, and moving relays interact.
func TestByzantineChurnMobilityStress(t *testing.T) {
	city, m := twoIslands()
	shared := fuzzSchedule{bits: 0b10110, start: 0.001, stagger: 0.003, width: 2}
	path := pingPong{a: geo.Pt(40, 0), b: geo.Pt(340, 0), speed: 30}
	adv := &Adversary{
		Behaviors: map[int]APBehavior{
			1: BehaviorGrayhole,
			2: BehaviorReplayer,
			4: BehaviorTTLReset,
			5: BehaviorFlooder,
		},
		ReplayInterval: 0.25, ReplayHorizon: 2,
		InjectRate: 2, InjectHorizon: 2,
	}
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
				cfg.Adversary = adv // shared: the engine must never write it
				if i%2 == 1 {
					cfg.Defense = Defense{MaxTTL: 32, TamperCheck: true, NeighborRate: 4}
				}
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

func TestInvariantCheckerCountsPastCap(t *testing.T) {
	ic := NewInvariantChecker(1000, Config{})
	// 100 distinct nodes transmitting without ever accepting: 100 honest
	// violations against a 32-line report cap.
	for node := 0; node < 100; node++ {
		ic.Probe(ProbeEvent{Kind: ProbeTransmit, Node: node, From: -1, TTL: 5})
	}
	if ic.Total() != 100 {
		t.Fatalf("Total = %d, want 100", ic.Total())
	}
	v := ic.Violations()
	if len(v) != maxViolations+1 {
		t.Fatalf("Violations len = %d, want %d recorded + 1 summary", len(v), maxViolations)
	}
	want := "... and 68 more honest violations (total 100)"
	if v[len(v)-1] != want {
		t.Fatalf("summary line = %q, want %q", v[len(v)-1], want)
	}
}
