package faults

import (
	"math"
	"testing"

	"citymesh/internal/citygen"
	"citymesh/internal/core"
	"citymesh/internal/mesh"
	"citymesh/internal/sim"
)

// riverMesh builds a scaled boston (the preset whose river survives
// scaling) for front tests that need water.
func riverMesh(t testing.TB) *core.Network {
	t.Helper()
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
	return n
}

func TestFloodFrontAdvancesMonotonically(t *testing.T) {
	n := riverMesh(t)
	f, err := NewFloodFront(n.Mesh, n.City, FloodFrontConfig{SpeedMps: 10, StartS: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Nothing is down before the banks burst.
	if got := f.DownFractionAt(4.9); got != 0 {
		t.Fatalf("down fraction %v before StartS", got)
	}
	// The submerged set only ever grows, and eventually covers everything.
	prev := -1.0
	for _, tm := range []float64{5, 10, 20, 40, 80, 1e6} {
		frac := f.DownFractionAt(tm)
		if frac < prev {
			t.Fatalf("t=%v: down fraction %v receded from %v", tm, frac, prev)
		}
		prev = frac
	}
	if prev != 1 {
		t.Fatalf("unbounded front must eventually drown every AP, got %v", prev)
	}
	// Per-AP monotonicity: once down, down forever.
	for ap := 0; ap < n.Mesh.NumAPs(); ap++ {
		if f.Down(ap, 20) && !f.Down(ap, 21) {
			t.Fatalf("AP %d resurfaced", ap)
		}
	}
	// Out-of-range APs are never down (mobile node indices land here).
	if f.Down(-1, 100) || f.Down(n.Mesh.NumAPs()+3, 100) {
		t.Error("out-of-range node must never be scheduled down")
	}
}

func TestFloodFrontFracCapMatchesStaticFlood(t *testing.T) {
	n := riverMesh(t)
	inj, err := Inject(n.Mesh, n.City, Config{Mode: ModeFloodFront, Frac: 0.3, FrontSpeed: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	front, ok := inj.Schedule.(*FloodFront)
	if !ok {
		t.Fatalf("schedule is %T, want *FloodFront", inj.Schedule)
	}
	static, err := Inject(n.Mesh, n.City, Config{Mode: ModeFlood, Frac: 0.3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The fully-advanced front drowns exactly the static flood's AP set.
	finalDown := 0
	for ap := 0; ap < n.Mesh.NumAPs(); ap++ {
		down := front.Down(ap, math.Inf(1))
		if down {
			finalDown++
		}
		if down != static.FailedSet.Contains(ap) {
			t.Fatalf("AP %d: front final state %v, static flood %v", ap, down, static.FailedSet.Contains(ap))
		}
	}
	if finalDown != static.FailedSet.Len() {
		t.Fatalf("front drowns %d, static flood %d", finalDown, static.FailedSet.Len())
	}
}

func TestFloodFrontDeterministicUnderJitter(t *testing.T) {
	n := riverMesh(t)
	mk := func(seed int64) *FloodFront {
		f, err := NewFloodFront(n.Mesh, n.City, FloodFrontConfig{SpeedMps: 5, JitterS: 4, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	a, b, c := mk(9), mk(9), mk(10)
	same, diff := true, false
	for ap := 0; ap < n.Mesh.NumAPs(); ap++ {
		for _, tm := range []float64{1, 7, 19} {
			if a.Down(ap, tm) != b.Down(ap, tm) {
				same = false
			}
			if a.Down(ap, tm) != c.Down(ap, tm) {
				diff = true
			}
		}
	}
	if !same {
		t.Error("same seed produced different fronts")
	}
	if !diff {
		t.Error("different jitter seeds produced identical fronts")
	}
}

func TestFloodFrontNeedsWater(t *testing.T) {
	n, m := testMesh(t, 21) // SmallTestSpec has no rivers
	if len(n.City.Water) != 0 {
		t.Skip("test spec grew water")
	}
	if _, err := NewFloodFront(m, n.City, FloodFrontConfig{}); err == nil {
		t.Error("flood front on a waterless city should error")
	}
	if _, err := Inject(m, n.City, Config{Mode: ModeFloodFront, Frac: 0.2}); err == nil {
		t.Error("injecting a flood front on a waterless city should error")
	}
}

func TestRollingBlackoutRotation(t *testing.T) {
	n, m := testMesh(t, 22)
	rb, err := NewRollingBlackout(m, n.City, BlackoutConfig{Districts: 3, OutageS: 5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rb.NumDistricts() < 2 {
		t.Fatalf("test city occupies %d districts; rotation is trivial", rb.NumDistricts())
	}
	// Every AP goes dark exactly once during one pass, and the pass ends.
	horizon := float64(rb.NumDistricts()) * 5
	for ap := 0; ap < m.NumAPs(); ap++ {
		everDown := false
		for tm := 0.0; tm < horizon; tm += 0.5 {
			if rb.Down(ap, tm) {
				everDown = true
			}
		}
		if !everDown {
			t.Fatalf("AP %d never blacked out during the pass", ap)
		}
		if rb.Down(ap, horizon+1) {
			t.Fatalf("AP %d still dark after the non-repeating pass", ap)
		}
	}
	// Back-to-back stagger: at any instant at most one district is dark,
	// so the down fraction never reaches 1 (the rotation is load shedding,
	// not a citywide outage).
	for tm := 0.0; tm < horizon; tm += 0.5 {
		if rb.DownFractionAt(tm) >= 1 {
			t.Fatalf("t=%v: the whole city is dark under a rolling rotation", tm)
		}
	}
}

func TestRollingBlackoutZeroDurationWindow(t *testing.T) {
	n, m := testMesh(t, 23)
	// An explicit negative window is rejected; the zero value takes the
	// default rather than meaning "no outage".
	if _, err := NewRollingBlackout(m, n.City, BlackoutConfig{OutageS: -1}); err == nil {
		t.Error("negative outage window must be rejected")
	}
	rb, err := NewRollingBlackout(m, n.City, BlackoutConfig{OutageS: 1e-9, StaggerS: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A (near-)zero-duration window blacks out essentially nothing: the
	// half-open [off, off+outage) windows cover measure ~0 of the timeline.
	down := 0
	for tm := 0.013; tm < 20; tm += 0.257 {
		for ap := 0; ap < m.NumAPs(); ap++ {
			if rb.Down(ap, tm) {
				down++
			}
		}
	}
	if down != 0 {
		t.Errorf("zero-duration windows caught %d sampled outages", down)
	}
}

func TestRollingBlackoutOverlapAndRepeat(t *testing.T) {
	n, m := testMesh(t, 24)
	rb, err := NewRollingBlackout(m, n.City, BlackoutConfig{
		Districts: 2, OutageS: 10, StaggerS: 2, Repeat: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Overlapping windows (stagger < outage): at some instant more than
	// one district must be dark simultaneously.
	overlap := false
	period := float64(rb.NumDistricts()) * 2
	for tm := 0.0; tm < period; tm += 0.25 {
		if rb.DownFractionAt(tm) > 1.0/float64(rb.NumDistricts())+1e-9 {
			overlap = true
			break
		}
	}
	if rb.NumDistricts() > 1 && !overlap {
		t.Error("stagger < outage should overlap district windows")
	}
	// Repeat: the schedule is periodic.
	for ap := 0; ap < m.NumAPs(); ap++ {
		for _, tm := range []float64{0.5, 3.3, 7.7} {
			if rb.Down(ap, tm) != rb.Down(ap, tm+period) {
				t.Fatalf("AP %d: repeat rotation not periodic at t=%v", ap, tm)
			}
		}
	}
}

// --- schedule-composition edge cases (OffsetSchedule, recovery ordering,
// overlapping injections) ---

func TestOffsetScheduleComposes(t *testing.T) {
	// Offset of an offset adds up; churn under a double shift matches a
	// single shift of the sum.
	n, m := testMesh(t, 25)
	inj, err := Inject(m, n.City, Config{Mode: ModeChurn, Frac: 0.4, Seed: 6, Horizon: 40})
	if err != nil {
		t.Fatal(err)
	}
	base := inj.Schedule
	double := sim.OffsetSchedule{Base: sim.OffsetSchedule{Base: base, Offset: 3}, Offset: 4}
	single := sim.OffsetSchedule{Base: base, Offset: 7}
	for ap := 0; ap < m.NumAPs(); ap++ {
		for _, tm := range []float64{0, 1.5, 10, 33} {
			if double.Down(ap, tm) != single.Down(ap, tm) {
				t.Fatalf("AP %d t=%v: nested offsets disagree with their sum", ap, tm)
			}
		}
	}
	_ = n
}

func TestOffsetScheduleNegativeOffsetLooksBack(t *testing.T) {
	// A negative offset rewinds the schedule: a recovery that already
	// happened is un-happened from the shifted run's perspective.
	r := Recovery(mesh.NewNodeSet(3).Add(2), 10)
	off := sim.OffsetSchedule{Base: r, Offset: -5}
	if !off.Down(2, 12) {
		t.Error("offset -5 + t 12 = 7 is before recovery; AP must be down")
	}
	if off.Down(2, 16) {
		t.Error("offset -5 + t 16 = 11 is after recovery; AP must be up")
	}
}

func TestRecoveryAtZeroHealsImmediately(t *testing.T) {
	// Zero-duration outage: recovery at t=0 means nothing is ever down,
	// even though the static set says otherwise.
	r := Recovery(mesh.NewNodeSet(2).Add(0).Add(1), 0)
	for _, tm := range []float64{0, 0.001, 5} {
		if r.Down(0, tm) || r.Down(1, tm) {
			t.Fatalf("t=%v: recovery at 0 must heal from the first instant", tm)
		}
	}
}

func TestRecoveryBeforeFailureOrdering(t *testing.T) {
	// A recovery instant *earlier* than the base schedule's own failure
	// windows wins: RecoverySchedule clamps everything up from recoverAt,
	// even failures the wrapped schedule would inject later.
	n, m := testMesh(t, 26)
	churn, err := Inject(m, n.City, Config{Mode: ModeChurn, Frac: 0.5, Seed: 8, Horizon: 60})
	if err != nil {
		t.Fatal(err)
	}
	healed := churn.WithRecovery(0.5)
	for ap := 0; ap < m.NumAPs(); ap++ {
		for _, tm := range []float64{0.5, 1, 10, 59} {
			if healed.Schedule.Down(ap, tm) {
				t.Fatalf("AP %d t=%v: churn toggle after the recovery instant resurrected a failure", ap, tm)
			}
		}
	}
	// Before the recovery instant the base schedule still applies.
	agree := 0
	for ap := 0; ap < m.NumAPs(); ap++ {
		if healed.Schedule.Down(ap, 0.2) == churn.Schedule.Down(ap, 0.2) {
			agree++
		}
	}
	if agree != m.NumAPs() {
		t.Errorf("pre-recovery behaviour diverged from the base schedule (%d/%d agree)", agree, m.NumAPs())
	}
}

func TestOverlappingInjectionsMerge(t *testing.T) {
	// Two static injections applied to one sim config union their failure
	// sets; a schedule injection rides alongside without clobbering them.
	n, m := testMesh(t, 27)
	u1, err := Inject(m, n.City, Config{Mode: ModeUniform, Frac: 0.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	u2, err := Inject(m, n.City, Config{Mode: ModeDisk, Frac: 0.2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := Inject(m, n.City, Config{Mode: ModeChurn, Frac: 0.3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var cfg sim.Config
	u1.ApplySet(&cfg)
	u2.ApplySet(&cfg)
	ch.ApplySet(&cfg)
	u1.FailedSet.ForEach(func(ap int) {
		if !cfg.FailedSet.Contains(ap) {
			t.Fatalf("AP %d from the first injection lost in the merge", ap)
		}
	})
	u2.FailedSet.ForEach(func(ap int) {
		if !cfg.FailedSet.Contains(ap) {
			t.Fatalf("AP %d from the overlapping injection lost in the merge", ap)
		}
	})
	if cfg.Schedule == nil {
		t.Fatal("churn schedule dropped by the merge")
	}
	_ = n
}
