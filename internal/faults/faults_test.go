package faults

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"citymesh/internal/citygen"
	"citymesh/internal/core"
	"citymesh/internal/mesh"
	"citymesh/internal/sim"
)

func testMesh(t testing.TB, seed int64) (*core.Network, *mesh.Mesh) {
	t.Helper()
	n, err := core.FromSpec(citygen.SmallTestSpec(seed), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return n, n.Mesh
}

func TestUniformKillsExactFraction(t *testing.T) {
	n, m := testMesh(t, 11)
	for _, frac := range []float64{0, 0.1, 0.3, 0.5, 1} {
		inj, err := Inject(m, n.City, Config{Mode: ModeUniform, Frac: frac, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		want := int(math.Round(frac * float64(m.NumAPs())))
		if inj.FailedSet.Len() != want {
			t.Errorf("frac %v: killed %d, want exactly %d of %d",
				frac, inj.FailedSet.Len(), want, m.NumAPs())
		}
	}
}

func TestUniformDeterministic(t *testing.T) {
	n, m := testMesh(t, 12)
	a, _ := Inject(m, n.City, Config{Mode: ModeUniform, Frac: 0.3, Seed: 42})
	b, _ := Inject(m, n.City, Config{Mode: ModeUniform, Frac: 0.3, Seed: 42})
	if !reflect.DeepEqual(a.FailedSet, b.FailedSet) {
		t.Error("same seed produced different failure sets")
	}
	c, _ := Inject(m, n.City, Config{Mode: ModeUniform, Frac: 0.3, Seed: 43})
	if reflect.DeepEqual(a.FailedSet, c.FailedSet) {
		t.Error("different seeds produced identical failure sets")
	}
}

func TestDiskIsSpatiallyCorrelated(t *testing.T) {
	n, m := testMesh(t, 13)
	inj, err := Inject(m, n.City, Config{Mode: ModeDisk, Frac: 0.25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := int(math.Round(0.25 * float64(m.NumAPs())))
	if inj.FailedSet.Len() != want {
		t.Fatalf("killed %d, want %d", inj.FailedSet.Len(), want)
	}
	// Every dead AP must be nearer the center than every surviving AP
	// (ties aside): the failure set is a disk.
	center := n.City.Bounds.Center()
	maxDead := 0.0
	for ap := range m.APs {
		if inj.FailedSet.Contains(ap) {
			maxDead = math.Max(maxDead, m.APs[ap].Pos.Dist(center))
		}
	}
	for i := range m.APs {
		if inj.FailedSet.Contains(i) {
			continue
		}
		if d := m.APs[i].Pos.Dist(center); d < maxDead-1e-9 {
			t.Fatalf("surviving AP %d at %.1f m inside blast radius %.1f m", i, d, maxDead)
		}
	}
}

func TestFloodNeedsWater(t *testing.T) {
	n, m := testMesh(t, 16) // SmallTestSpec has no rivers
	if len(n.City.Water) == 0 {
		if _, err := Inject(m, n.City, Config{Mode: ModeFlood, Frac: 0.2}); !errors.Is(err, ErrInapplicable) {
			t.Errorf("flooding a waterless city: err = %v, want ErrInapplicable", err)
		}
	}
}

func TestFloodHugsTheRiver(t *testing.T) {
	spec, ok := citygen.Preset("boston")
	if !ok {
		t.Fatal("no boston preset")
	}
	spec.Width, spec.Height = spec.Width/3, spec.Height/3
	spec.Rivers[0].Start = spec.Rivers[0].Start.Scale(1.0 / 3)
	spec.Rivers[0].End = spec.Rivers[0].End.Scale(1.0 / 3)
	n, err := core.FromSpec(spec, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(n.City.Water) == 0 {
		t.Skip("scaled boston lost its river")
	}
	inj, err := Inject(n.Mesh, n.City, Config{Mode: ModeFlood, Frac: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	want := int(math.Round(0.2 * float64(n.Mesh.NumAPs())))
	if inj.FailedSet.Len() != want {
		t.Fatalf("killed %d, want %d", inj.FailedSet.Len(), want)
	}
	// Dead APs must be nearer water than survivors (flood plain property).
	distToWater := func(ap int) float64 {
		best := math.Inf(1)
		for _, w := range n.City.Water {
			if d := w.Footprint.DistToPoint(n.Mesh.APs[ap].Pos); d < best {
				best = d
			}
		}
		return best
	}
	maxDead := 0.0
	for ap := range n.Mesh.APs {
		if inj.FailedSet.Contains(ap) {
			maxDead = math.Max(maxDead, distToWater(ap))
		}
	}
	for i := range n.Mesh.APs {
		if inj.FailedSet.Contains(i) {
			continue
		}
		if d := distToWater(i); d < maxDead-1e-9 {
			t.Fatalf("surviving AP %d is %.1f m from water, inside the %.1f m flood plain", i, d, maxDead)
		}
	}
}

// Churn at fraction 0 injects nothing, as uniform at 0 does; fractions
// outside [0, 1) are configuration errors, not inapplicable modes.
func TestChurnAtZeroInjectsNothing(t *testing.T) {
	n, m := testMesh(t, 17)
	inj, err := Inject(m, n.City, Config{Mode: ModeChurn, Frac: 0, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if inj.Mode != ModeChurn || inj.Schedule != nil || inj.FailedSet.Len() != 0 {
		t.Errorf("churn at 0 injected %+v", inj)
	}
	for _, frac := range []float64{-0.1, 1} {
		_, err := Inject(m, n.City, Config{Mode: ModeChurn, Frac: frac})
		if err == nil || errors.Is(err, ErrInapplicable) {
			t.Errorf("churn at %v: err = %v, want a configuration error", frac, err)
		}
	}
}

func TestChurnScheduleDeterministicAndStationary(t *testing.T) {
	n, m := testMesh(t, 17)
	mk := func(seed int64) *ChurnSchedule {
		inj, err := Inject(m, n.City, Config{Mode: ModeChurn, Frac: 0.3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return inj.Schedule.(*ChurnSchedule)
	}
	a, b := mk(5), mk(5)
	for _, tm := range []float64{0, 0.01, 0.5, 3, 9.9} {
		for ap := 0; ap < m.NumAPs(); ap += 7 {
			if a.Down(ap, tm) != b.Down(ap, tm) {
				t.Fatalf("same seed disagrees at ap=%d t=%v", ap, tm)
			}
		}
	}
	// Long-run down fraction should hover near the target 0.3.
	samples, down := 0, 0
	for _, tm := range []float64{0.5, 1.5, 2.5, 4, 6, 8} {
		for ap := 0; ap < m.NumAPs(); ap++ {
			samples++
			if a.Down(ap, tm) {
				down++
			}
		}
	}
	got := float64(down) / float64(samples)
	if got < 0.15 || got > 0.45 {
		t.Errorf("down fraction %.3f far from target 0.30", got)
	}
}

func TestChurnTogglesFlipState(t *testing.T) {
	s := &ChurnSchedule{
		toggles:   [][]float64{{1, 2, 3}},
		startDown: []bool{false},
	}
	cases := []struct {
		t    float64
		down bool
	}{
		{0, false}, {0.99, false}, {1, true}, {1.5, true},
		{2, false}, {2.5, false}, {3, true}, {100, true},
	}
	for _, c := range cases {
		if got := s.Down(0, c.t); got != c.down {
			t.Errorf("Down(0, %v) = %v, want %v", c.t, got, c.down)
		}
	}
	if s.Down(5, 0) {
		t.Error("out-of-range AP should never be down")
	}
}

// TestApplyMergesIntoSimConfig pins ApplySet, the one installer: sets
// union into the config, the config never shares the injection's storage,
// and a schedule rides along.
func TestApplyMergesIntoSimConfig(t *testing.T) {
	n, m := testMesh(t, 18)
	uni, err := Inject(m, n.City, Config{Mode: ModeUniform, Frac: 0.2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	disk, err := Inject(m, n.City, Config{Mode: ModeDisk, Frac: 0.2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	churn, err := Inject(m, n.City, Config{Mode: ModeChurn, Frac: 0.3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	extra := m.NumAPs() + 5 // already in the config, outside every injection
	cfg := sim.DefaultConfig()
	cfg.FailedSet = mesh.NewNodeSet(m.NumAPs()).Add(extra)
	uni.ApplySet(&cfg)
	disk.ApplySet(&cfg)
	churn.ApplySet(&cfg)

	if !cfg.FailedSet.Contains(extra) {
		t.Error("ApplySet must merge, not replace")
	}
	for ap := 0; ap < m.NumAPs(); ap++ {
		want := uni.FailedSet.Contains(ap) || disk.FailedSet.Contains(ap)
		if cfg.FailedSet.Contains(ap) != want {
			t.Fatalf("AP %d: applied %v, want the union's %v", ap, !want, want)
		}
	}
	if cfg.Schedule != churn.Schedule {
		t.Error("ApplySet must install the churn schedule")
	}

	// Concurrent runs share one Injection: growing or editing the config's
	// set must never write through to it.
	before := uni.FailedSet.Clone()
	var single sim.Config
	uni.ApplySet(&single)
	for i := range single.FailedSet {
		single.FailedSet[i] = ^uint64(0)
	}
	single.FailedSet = single.FailedSet.Add(4 * m.NumAPs())
	if !reflect.DeepEqual(uni.FailedSet, before) {
		t.Error("mutating cfg.FailedSet after ApplySet changed the injection's set")
	}
}

func TestInjectUnknownMode(t *testing.T) {
	n, m := testMesh(t, 19)
	if _, err := Inject(m, n.City, Config{Mode: "earthquake"}); err == nil {
		t.Error("unknown mode should error")
	}
	inj, err := Inject(m, n.City, Config{})
	if err != nil || inj.FailedSet.Len() != 0 || inj.Schedule != nil {
		t.Error("empty mode should be a no-op injection")
	}
}

func TestRecoveryScheduleHealsAtInstant(t *testing.T) {
	r := &RecoverySchedule{failed: mesh.NewNodeSet(8).Add(3).Add(7), recoverAt: 5.0}
	if !r.Down(3, 0) || !r.Down(7, 4.999) {
		t.Error("failed APs must be down before the recovery instant")
	}
	if r.Down(3, 5.0) || r.Down(7, 100) {
		t.Error("every AP must be up at and after the recovery instant")
	}
	if r.Down(1, 0) {
		t.Error("unlisted APs are never down")
	}
}

func TestWithRecoveryMovesStaticFailuresIntoSchedule(t *testing.T) {
	n, m := testMesh(t, 23)
	inj, err := Inject(m, n.City, Config{Mode: ModeUniform, Frac: 0.3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if inj.FailedSet.Len() == 0 {
		t.Fatal("expected static failures")
	}
	healed := inj.WithRecovery(10)
	if healed.FailedSet.Len() != 0 {
		t.Error("WithRecovery must clear the static failed set (it can never heal)")
	}
	if healed.Schedule == nil {
		t.Fatal("WithRecovery must install a schedule")
	}
	anyAP := -1
	for ap := range m.APs {
		if inj.FailedSet.Contains(ap) {
			anyAP = ap
			break
		}
	}
	if !healed.Schedule.Down(anyAP, 0) {
		t.Error("failed AP must be down before recovery")
	}
	if healed.Schedule.Down(anyAP, 10) {
		t.Error("failed AP must be up after recovery")
	}
	// Churn injections heal too: the base schedule is muted after the
	// recovery instant.
	cinj, err := Inject(m, n.City, Config{Mode: ModeChurn, Frac: 0.5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	chealed := cinj.WithRecovery(3)
	for ap := 0; ap < m.NumAPs(); ap++ {
		if chealed.Schedule.Down(ap, 3.5) {
			t.Fatalf("AP %d still down after churn recovery instant", ap)
		}
	}
}

func TestOffsetScheduleShiftsClock(t *testing.T) {
	r := &RecoverySchedule{failed: mesh.NewNodeSet(2).Add(1), recoverAt: 5.0}
	off := sim.OffsetSchedule{Base: r, Offset: 4.5}
	if !off.Down(1, 0.2) {
		t.Error("offset 4.5 + t 0.2 = 4.7 is before recovery; AP must be down")
	}
	if off.Down(1, 0.6) {
		t.Error("offset 4.5 + t 0.6 = 5.1 is after recovery; AP must be up")
	}
	empty := sim.OffsetSchedule{}
	if empty.Down(0, 0) {
		t.Error("nil base schedule means nothing is down")
	}
}
