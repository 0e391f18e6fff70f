package sim

import (
	"errors"
	"reflect"
	"testing"
	"unsafe"

	"citymesh/internal/citygen"
	"citymesh/internal/mesh"
	"citymesh/internal/osm"
)

// gridCity generates the gridtown preset — the allocation-budget and
// determinism fixtures run on a real city, not a toy chain.
func gridCity(t testing.TB) (*osm.City, *mesh.Mesh) {
	t.Helper()
	spec, ok := citygen.Preset("gridtown")
	if !ok {
		t.Fatal("gridtown preset missing")
	}
	plan, err := citygen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	city := &osm.City{Name: plan.Spec.Name, Bounds: plan.Bounds}
	for i, b := range plan.Buildings {
		city.Buildings = append(city.Buildings, &osm.Feature{
			ID: osm.ID(i + 1), Kind: osm.KindBuilding,
			Footprint: b.Footprint, Centroid: b.Footprint.Centroid(),
		})
	}
	return city, mesh.Place(city, mesh.DefaultConfig())
}

// engineConfigs is the determinism matrix: every scratch-reuse code path
// that could leak state between runs (RNG, event heap, per-AP slices,
// collision clocks, adversary taint, failure sets) gets a config that
// exercises it.
func engineConfigs(numAPs int) map[string]Config {
	noisy := DefaultConfig()
	noisy.LossProb = 0.3
	noisy.JitterMax = 0.02

	collide := DefaultConfig()
	collide.CollisionWindow = 0.001

	failed := DefaultConfig()
	failed.FailedSet = mesh.NewNodeSet(numAPs).Add(2).Add(5).Add(7).Add(11)
	failed.Adversary = &Adversary{Behaviors: map[int]APBehavior{13: BehaviorBlackhole}}

	adv := DefaultConfig()
	adv.JitterMax = 0.01
	adv.Adversary = &Adversary{
		Behaviors: map[int]APBehavior{
			3:  BehaviorGrayhole,
			9:  BehaviorReplayer,
			15: BehaviorTTLReset,
		},
		DropProb:       0.5,
		ReplayInterval: 0.05,
		ReplayHorizon:  0.5,
	}
	adv.Defense = Defense{MaxTTL: 64, NeighborRate: 50}

	return map[string]Config{
		"default":     DefaultConfig(),
		"noisy":       noisy,
		"collision":   collide,
		"failures":    failed,
		"adversarial": adv,
	}
}

// TestEngineWarmRunsMatchColdRuns is the reused-scratch determinism
// guarantee: re-running on a warm engine (scratch reused from its free list)
// must be byte-identical to a cold engine's first run, for every config in
// the matrix and across seeds.
func TestEngineWarmRunsMatchColdRuns(t *testing.T) {
	city, m := chainCity(20, 40)
	for name, cfg := range engineConfigs(m.NumAPs()) {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			cfg.RecordTranscript = true
			warm := NewEngine(m, city, floodAll{})
			for seed := int64(1); seed <= 3; seed++ {
				cfg.Seed = seed
				// Run once, then again: the second run reuses
				// the first's scratch.
				first, err := warm.Run(mkPacket(0, 19, 255), cfg)
				if err != nil {
					t.Fatal(err)
				}
				second, err := warm.Run(mkPacket(0, 19, 255), cfg)
				if err != nil {
					t.Fatal(err)
				}
				cold, err := NewEngine(m, city, floodAll{}).Run(mkPacket(0, 19, 255), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(first, cold) || !reflect.DeepEqual(second, cold) {
					t.Fatalf("seed %d: warm runs diverge from cold run\nfirst:  %+v\nsecond: %+v\ncold:   %+v",
						seed, first, second, cold)
				}
			}
		})
	}
}

// TestEngineRunAllocs pins the warm-path allocation budget on gridtown.
// A warm Engine.Run with bitset failure sets and no transcript allocates
// nothing: scratch comes back from the engine's free list, the event heap
// backing array is retained, and the RNG is re-seeded in place. A real
// regression (per-run maps, heap boxing, closures) costs hundreds of
// allocations and trips this immediately.
func TestEngineRunAllocs(t *testing.T) {
	city, m := gridCity(t)
	eng := NewEngine(m, city, floodAll{})
	cfg := DefaultConfig()
	cfg.FailedSet = mesh.NewNodeSet(m.NumAPs()).Add(3).Add(99)
	pkt := mkPacket(0, city.NumBuildings()-1, 255)
	if _, err := eng.Run(pkt, cfg); err != nil { // size the scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := eng.Run(pkt, cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm Engine.Run on gridtown (%d APs): %.1f allocs/run", m.NumAPs(), allocs)
	if allocs != 0 {
		t.Errorf("warm Engine.Run allocates %.1f/run, want 0", allocs)
	}
}

// TestEngineDefendedRunAllocs extends the budget to a run with the whole
// defense stack on. The rate gate keeps one token bucket per communicating
// pair in a table on the reused scratch; arming it for a run only bumps an
// epoch, and the table grows only past its largest wave, so the second
// defended run over the same wave allocates nothing.
func TestEngineDefendedRunAllocs(t *testing.T) {
	city, m := gridCity(t)
	eng := NewEngine(m, city, floodAll{})
	cfg := DefaultConfig()
	cfg.FailedSet = mesh.NewNodeSet(m.NumAPs()).Add(3).Add(99)
	cfg.Defense = Defense{MaxTTL: 255, TamperCheck: true, NeighborRate: 8, NeighborBurst: 16, MaxGeocastRadius: 2000}
	pkt := mkPacket(0, city.NumBuildings()-1, 255)
	warm, err := eng.Run(pkt, cfg) // sizes the gate's table
	if err != nil {
		t.Fatal(err)
	}
	if warm.Receptions == 0 {
		t.Fatal("the defended run received nothing, so the gate saw no pair")
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := eng.Run(pkt, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm defended Engine.Run allocates %.1f/run, want 0", allocs)
	}
}

// TestEventSize pins the heap element: every sift copies whole events, and
// int32 node ids are what keep one at 40 bytes (it was 56).
func TestEventSize(t *testing.T) {
	if size := unsafe.Sizeof(event{}); size > 40 {
		t.Errorf("event is %d bytes, want at most 40", size)
	}
}

// TestEngineRunErrors covers the typed-error contract: a run that never
// starts says why, and its Result is the empty one (SourceAP == -1).
func TestEngineRunErrors(t *testing.T) {
	city, m := chainCity(4, 40)
	eng := NewEngine(m, city, floodAll{})

	// Unroutable source building: typed sentinel.
	res, err := eng.Run(mkPacket(99, 1, 16), DefaultConfig())
	if !errors.Is(err, ErrNoSourceAP) {
		t.Errorf("out-of-range source: err = %v, want ErrNoSourceAP", err)
	}
	if res.SourceAP != -1 {
		t.Errorf("out-of-range source: SourceAP = %d, want -1", res.SourceAP)
	}

	// Invalid config: validation error before any event runs.
	bad := DefaultConfig()
	bad.LossProb = 1.5
	res, err = eng.Run(mkPacket(0, 1, 16), bad)
	if !errors.Is(err, ErrBadLossProb) {
		t.Errorf("invalid config: err = %v, want ErrBadLossProb", err)
	}
	if res.SourceAP != -1 || res.Broadcasts != 0 {
		t.Errorf("invalid config ran: %+v", res)
	}
}
