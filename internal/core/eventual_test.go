package core

import (
	"errors"
	"testing"

	"citymesh/internal/faults"
	"citymesh/internal/geo"
	"citymesh/internal/mesh"
	"citymesh/internal/mobility"
	"citymesh/internal/sim"
)

func TestReliableConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  ReliableConfig
		want error // nil means valid
	}{
		{"zero value", ReliableConfig{}, nil},
		{"defaults", DefaultReliableConfig(), nil},
		{"negative retries", ReliableConfig{Retries: -1}, ErrNegativeRetries},
		{"zero widen factor", ReliableConfig{WidenFactors: []float64{2, 0}}, ErrBadWidenFactor},
		{"negative widen factor", ReliableConfig{WidenFactors: []float64{-3}}, ErrBadWidenFactor},
		{"inverted backoff", ReliableConfig{BackoffBase: 2, BackoffMax: 1}, ErrBackoffInverted},
		{"base without max", ReliableConfig{BackoffBase: 2}, nil},
		{"max without base", ReliableConfig{BackoffMax: 0.01}, nil},
		{"negative jitter", ReliableConfig{JitterFrac: -0.1}, ErrBadJitterFrac},
		{"jitter above one", ReliableConfig{JitterFrac: 1.5}, ErrBadJitterFrac},
		{"jitter boundaries", ReliableConfig{JitterFrac: 1}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.want == nil {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("Validate() = %v, want errors.Is %v", err, tc.want)
			}
		})
	}
}

func TestSendReliableRejectsInvalidConfig(t *testing.T) {
	n := smallNetwork(t, 401)
	rcfg := DefaultReliableConfig()
	rcfg.Retries = -2
	if _, err := n.SendReliable(0, 1, nil, sim.DefaultConfig(), rcfg); !errors.Is(err, ErrNegativeRetries) {
		t.Fatalf("SendReliable with negative retries = %v, want ErrNegativeRetries", err)
	}
	rcfg = DefaultReliableConfig()
	rcfg.JitterFrac = 2
	if _, err := n.SendEventually(0, 1, nil, sim.DefaultConfig(), rcfg, EventualConfig{}); !errors.Is(err, ErrBadJitterFrac) {
		t.Fatalf("SendEventually with bad jitter = %v, want ErrBadJitterFrac", err)
	}
}

// TestRandomPairsTinyCity is the regression for the degenerate sampler: a
// one-building city used to spin count*50 rejection attempts and silently
// return nothing; now it is an explicit typed error, and a two-building
// city caps the request at the number of distinct ordered pairs.
func TestRandomPairsTinyCity(t *testing.T) {
	one, err := NewNetwork(gridCity(5, geo.Pt(0, 0)), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := one.RandomPairs(1, 10); !errors.Is(err, ErrTooFewBuildings) {
		t.Fatalf("one-building RandomPairs = %v, want ErrTooFewBuildings", err)
	}

	two, err := NewNetwork(gridCity(5, geo.Pt(0, 0), geo.Pt(40, 0)), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := two.RandomPairs(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 2 {
		t.Fatalf("two-building city yields %d pairs, want the 2 distinct ordered pairs", len(pairs))
	}
	seen := map[[2]int]bool{}
	for _, p := range pairs {
		if p[0] == p[1] || seen[p] {
			t.Fatalf("bad pair set %v", pairs)
		}
		seen[p] = true
	}
	if empty, err := two.RandomPairs(1, 0); err != nil || empty != nil {
		t.Fatalf("count<=0 = (%v, %v), want (nil, nil)", empty, err)
	}
}

// TestSendEventuallyHealsAfterRecovery drives the store-and-heal scheduler
// end to end: the destination's only AP is down until t=60 s of global sim
// time, so early ladders exhaust, the message is parked, and a later
// re-attempt — running against the schedule shifted past the recovery
// instant — delivers and acks the parked copy.
func TestSendEventuallyHealsAfterRecovery(t *testing.T) {
	n, src, dst, _ := corridorNetwork(t, 400, 300)
	var failed mesh.NodeSet
	for _, ap := range n.Mesh.APsInBuilding(dst) {
		failed = failed.Add(int(ap))
	}
	const recoverAt = 60.0
	simCfg := sim.DefaultConfig()
	simCfg.Schedule = faults.Recovery(failed, recoverAt)

	ecfg := EventualConfig{MaxAttempts: 8, BackoffBase: 8, BackoffMax: 64, ParkAfter: 2}
	res, err := n.SendEventually(src, dst, []byte("park me"), simCfg, DefaultReliableConfig(), ecfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered {
		t.Fatalf("never healed: %+v", res)
	}
	if !res.Partitioned || !res.Parked || !res.HealedFromPark {
		t.Fatalf("expected park-then-heal, got %+v", res)
	}
	if res.TimeToHeal < recoverAt {
		t.Errorf("TimeToHeal %.1f s predates the recovery at %.1f s", res.TimeToHeal, recoverAt)
	}
	if res.Attempts < ecfg.ParkAfter+1 {
		t.Errorf("healed in %d attempts, impossible before parking at %d", res.Attempts, ecfg.ParkAfter)
	}
	// The delivered message's parked copy is acked away.
	if got := n.ParkedStore().Len(BuildingAddress(dst)); got != 0 {
		t.Errorf("parked store still holds %d messages after heal", got)
	}
}

// TestSendEventuallyStaysParkedWithoutRecovery: a destination that never
// comes back is classified partitioned and its message stays in the store.
func TestSendEventuallyStaysParkedWithoutRecovery(t *testing.T) {
	city := gridCity(5, geo.Pt(0, 0), geo.Pt(5000, 0))
	cfg := DefaultConfig()
	cfg.APDensity = 1e-12
	n, err := NewNetwork(city, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ecfg := EventualConfig{MaxAttempts: 3, BackoffBase: 0.5, BackoffMax: 4, ParkAfter: 2}
	res, err := n.SendEventually(0, 1, []byte("stranded"), sim.DefaultConfig(), DefaultReliableConfig(), ecfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered || res.HealedFromPark {
		t.Fatalf("5 km gap should never deliver: %+v", res)
	}
	if !res.Partitioned || !res.Parked {
		t.Fatalf("expected partition classification and parking, got %+v", res)
	}
	if res.Attempts != ecfg.MaxAttempts {
		t.Errorf("attempts = %d, want all %d", res.Attempts, ecfg.MaxAttempts)
	}
	if got := n.ParkedStore().Len(BuildingAddress(1)); got != 1 {
		t.Errorf("parked store holds %d messages, want 1", got)
	}
}

// TestSendEventuallyDeterministic: two identical runs produce identical
// attempt sequences and time-to-heal under fixed seeds.
func TestSendEventuallyDeterministic(t *testing.T) {
	run := func() EventualResult {
		n, src, dst, _ := corridorNetwork(t, 400, 300)
		var failed mesh.NodeSet
		for _, ap := range n.Mesh.APsInBuilding(dst) {
			failed = failed.Add(int(ap))
		}
		simCfg := sim.DefaultConfig()
		simCfg.Schedule = faults.Recovery(failed, 60)
		ecfg := EventualConfig{MaxAttempts: 8, BackoffBase: 8, BackoffMax: 64, ParkAfter: 2}
		res, err := n.SendEventually(src, dst, nil, simCfg, DefaultReliableConfig(), ecfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Attempts != b.Attempts || a.TimeToHeal != b.TimeToHeal || a.TotalBroadcasts != b.TotalBroadcasts {
		t.Fatalf("non-deterministic store-and-heal:\n%+v\n%+v", a, b)
	}
}

// TestSendEventuallyMuleBridgesPartition: two buildings 300 m apart — no
// static route exists and store-and-heal alone would strand the message
// forever — but an evacuation walker carrying a radio from src to dst
// picks the flood rung's packet up and mules it across within one run.
func TestSendEventuallyMuleBridgesPartition(t *testing.T) {
	city := gridCity(5, geo.Pt(0, 0), geo.Pt(300, 0))
	cfg := DefaultConfig()
	cfg.APDensity = 1e-12
	n, err := NewNetwork(city, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ecfg := EventualConfig{MaxAttempts: 3, BackoffBase: 0.5, BackoffMax: 4, ParkAfter: 2}

	// Baseline: no carrier, permanently parked.
	base, err := n.SendEventually(0, 1, []byte("stranded"), sim.DefaultConfig(), DefaultReliableConfig(), ecfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.Delivered {
		t.Fatalf("300 m gap delivered without a carrier: %+v", base)
	}

	walk, err := mobility.Line(geo.Pt(0, 0), geo.Pt(300, 0), 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	simCfg := sim.DefaultConfig()
	simCfg.Mobiles = []sim.Mobile{{Path: walk, HorizonS: 60}}
	res, err := n.SendEventually(0, 1, []byte("mule me"), simCfg, DefaultReliableConfig(), ecfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered {
		t.Fatalf("walker never bridged the gap: %+v", res)
	}
	if res.Ladders[len(res.Ladders)-1].Rung != RungFlood {
		t.Errorf("mule pickup requires the flood rung, delivered via %v", res.Ladders[len(res.Ladders)-1].Rung)
	}
}

// clockProbePath records the latest absolute time it was queried at,
// proving SendEventually shifts carrier clocks with OffsetPath on
// re-attempts (each sim run restarts its own clock at zero).
type clockProbePath struct{ maxT *float64 }

func (p clockProbePath) PosAt(t float64) geo.Point {
	if t > *p.maxT {
		*p.maxT = t
	}
	return geo.Pt(1e6, 1e6) // far away: never participates
}

func TestSendEventuallyShiftsMobileClocks(t *testing.T) {
	city := gridCity(5, geo.Pt(0, 0), geo.Pt(300, 0))
	cfg := DefaultConfig()
	cfg.APDensity = 1e-12
	n, err := NewNetwork(city, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var maxT float64
	simCfg := sim.DefaultConfig()
	simCfg.Mobiles = []sim.Mobile{{Path: clockProbePath{maxT: &maxT}}}
	ecfg := EventualConfig{MaxAttempts: 3, BackoffBase: 8, BackoffMax: 64, ParkAfter: 2}
	if _, err := n.SendEventually(0, 1, nil, simCfg, DefaultReliableConfig(), ecfg); err != nil {
		t.Fatal(err)
	}
	// Attempt 3 runs at global t >= 8+16 s; without the OffsetPath wrap the
	// carrier would only ever see each run's own millisecond-scale clock.
	if maxT < 8 {
		t.Errorf("carrier clock never shifted past the first backoff: max query at t=%.3f", maxT)
	}
}
