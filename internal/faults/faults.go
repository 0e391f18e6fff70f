// Package faults injects failures into a realized AP mesh for disaster
// scenario evaluation: the paper's premise is operating *during* disasters,
// so the simulator must be able to kill APs the way disasters do —
// uniformly at random (scattered power loss), in a spatially correlated
// blast radius (explosion, flood along a river), inside an arbitrary
// polygon (a downed neighborhood), or as Markov on/off churn (brownouts,
// overloaded APs rebooting).
//
// Every injector is deterministic under its seed and produces an Injection
// that plugs directly into sim.Config: a static failure set plus, for
// churn, a time-varying sim.FailureSchedule the engine consults per event.
package faults

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"citymesh/internal/geo"
	"citymesh/internal/mesh"
	"citymesh/internal/osm"
	"citymesh/internal/sim"
)

// Mode names a fault injector.
type Mode string

const (
	// ModeNone injects nothing (the healthy baseline).
	ModeNone Mode = "none"
	// ModeUniform kills a uniform random fraction of APs.
	ModeUniform Mode = "uniform"
	// ModeDisk kills the APs nearest a blast center until the requested
	// fraction is down — a disk-shaped correlated outage.
	ModeDisk Mode = "disk"
	// ModePolygon kills every AP inside an explicit polygon.
	ModePolygon Mode = "polygon"
	// ModeFlood kills APs nearest the city's water features, growing the
	// flood plain until the requested fraction is down.
	ModeFlood Mode = "flood"
	// ModeChurn gives every AP an independent Markov on/off schedule.
	ModeChurn Mode = "churn"
	// ModeFloodFront is a time-evolving flood: the waterline advances away
	// from the mapped water at a configurable speed (see FloodFront).
	ModeFloodFront Mode = "floodfront"
	// ModeBlackout is a rolling district-by-district outage rotation (see
	// RollingBlackout).
	ModeBlackout Mode = "blackout"
)

// Modes lists the selectable injector names (for flag help).
func Modes() []string {
	return []string{string(ModeNone), string(ModeUniform), string(ModeDisk),
		string(ModePolygon), string(ModeFlood), string(ModeChurn),
		string(ModeFloodFront), string(ModeBlackout)}
}

// Config parameterizes an injection.
type Config struct {
	// Mode selects the injector.
	Mode Mode
	// Frac is the target fraction of APs failed (uniform/disk/flood) or,
	// for churn, the long-run fraction of time each AP spends down when
	// MeanUp/MeanDown are not set explicitly.
	Frac float64
	// Seed drives all randomness in the injector.
	Seed int64
	// Center overrides the blast center for ModeDisk; nil uses the city
	// bounds center.
	Center *geo.Point
	// Polygon is the outage area for ModePolygon.
	Polygon geo.Polygon
	// MeanUp and MeanDown are the churn state holding-time means in
	// seconds. When zero they are derived from Frac and DefaultChurnPeriod.
	MeanUp, MeanDown float64
	// Horizon bounds the churn schedule in seconds (default 60): beyond
	// it each AP freezes in its final sampled state.
	Horizon float64

	// FrontSpeed is the ModeFloodFront waterline speed in m/s (default 2).
	FrontSpeed float64
	// FrontStart delays the dynamic fronts (floodfront, blackout) by this
	// many seconds.
	FrontStart float64
	// FrontJitter is the ModeFloodFront per-AP submergence jitter bound in
	// seconds.
	FrontJitter float64
	// Districts, OutageS, StaggerS and Repeat parameterize ModeBlackout
	// (see BlackoutConfig; zero values take its defaults).
	Districts int
	OutageS   float64
	StaggerS  float64
	Repeat    bool
}

// DefaultChurnPeriod is the default mean up+down cycle length in seconds
// when churn timing is derived from Frac alone. It is short relative to
// real AP reboots so that sub-second simulations still see transitions.
const DefaultChurnPeriod = 0.2

// Injection is a concrete failure realization for one mesh.
type Injection struct {
	// Mode records which injector produced this.
	Mode Mode
	// FailedSet is the static set of APs down from t = 0.
	FailedSet mesh.NodeSet
	// Schedule is the time-varying model (ModeChurn only), else nil.
	Schedule sim.FailureSchedule
	// Desc is a human-readable summary for experiment tables.
	Desc string
}

// ApplySet installs the injection onto a simulator config: its failed set
// is unioned into cfg.FailedSet (a fresh set, so the injection's own set
// stays unshared with the config and concurrent runs may reuse one
// Injection), and its schedule, if any, replaces cfg.Schedule.
func (inj Injection) ApplySet(cfg *sim.Config) {
	if len(inj.FailedSet) > 0 {
		cfg.FailedSet = cfg.FailedSet.Union(inj.FailedSet)
	}
	if inj.Schedule != nil {
		cfg.Schedule = inj.Schedule
	}
}

// Inject realizes cfg against a mesh. The same (mesh, cfg) always produces
// the same injection.
func Inject(m *mesh.Mesh, city *osm.City, cfg Config) (Injection, error) {
	switch cfg.Mode {
	case "", ModeNone:
		return Injection{Mode: ModeNone, Desc: "no faults"}, nil
	case ModeUniform:
		return injectUniform(m, cfg)
	case ModeDisk:
		return injectDisk(m, city, cfg)
	case ModePolygon:
		return injectPolygon(m, cfg)
	case ModeFlood:
		return injectFlood(m, city, cfg)
	case ModeChurn:
		return injectChurn(m, cfg)
	case ModeFloodFront:
		return injectFloodFront(m, city, cfg)
	case ModeBlackout:
		return injectBlackout(m, city, cfg)
	default:
		return Injection{}, fmt.Errorf("faults: unknown mode %q (have %v)", cfg.Mode, Modes())
	}
}

// targetCount converts a fraction into an AP count, clamped to [0, n].
func targetCount(n int, frac float64) int {
	if frac <= 0 {
		return 0
	}
	if frac >= 1 {
		return n
	}
	return int(math.Round(frac * float64(n)))
}

func injectUniform(m *mesh.Mesh, cfg Config) (Injection, error) {
	n := m.NumAPs()
	kill := targetCount(n, cfg.Frac)
	rng := rand.New(rand.NewSource(cfg.Seed))
	perm := rng.Perm(n)
	set := mesh.NewNodeSet(n)
	for _, ap := range perm[:kill] {
		set = set.Add(ap)
	}
	return Injection{
		Mode:      ModeUniform,
		FailedSet: set,
		Desc:      fmt.Sprintf("uniform: %d/%d APs down (p=%.2f)", kill, n, cfg.Frac),
	}, nil
}

// injectDisk kills the `kill` APs nearest the blast center: a disk by
// construction, whose radius adapts to local density.
func injectDisk(m *mesh.Mesh, city *osm.City, cfg Config) (Injection, error) {
	n := m.NumAPs()
	kill := targetCount(n, cfg.Frac)
	center := city.Bounds.Center()
	if cfg.Center != nil {
		center = *cfg.Center
	}
	type apDist struct {
		ap int
		d  float64
	}
	order := make([]apDist, n)
	for i := range m.APs {
		order[i] = apDist{ap: i, d: m.APs[i].Pos.Dist(center)}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].d != order[j].d {
			return order[i].d < order[j].d
		}
		return order[i].ap < order[j].ap
	})
	set := mesh.NewNodeSet(n)
	radius := 0.0
	for _, od := range order[:kill] {
		set = set.Add(od.ap)
		radius = od.d
	}
	return Injection{
		Mode:      ModeDisk,
		FailedSet: set,
		Desc: fmt.Sprintf("disk: %d/%d APs down within %.0f m of %v (p=%.2f)",
			kill, n, radius, center, cfg.Frac),
	}, nil
}

func injectPolygon(m *mesh.Mesh, cfg Config) (Injection, error) {
	if len(cfg.Polygon) < 3 {
		return Injection{}, fmt.Errorf("faults: polygon mode needs >= 3 vertices")
	}
	set := mesh.NewNodeSet(m.NumAPs())
	for i := range m.APs {
		if cfg.Polygon.Contains(m.APs[i].Pos) {
			set = set.Add(i)
		}
	}
	return Injection{
		Mode:      ModePolygon,
		FailedSet: set,
		Desc:      fmt.Sprintf("polygon: %d/%d APs down inside outage area", set.Len(), m.NumAPs()),
	}, nil
}

// injectFlood kills the APs closest to any water feature — the river
// bursting its banks — growing the plain until the fraction is reached.
func injectFlood(m *mesh.Mesh, city *osm.City, cfg Config) (Injection, error) {
	if len(city.Water) == 0 {
		return Injection{}, fmt.Errorf("faults: city %q has no water features to flood", city.Name)
	}
	n := m.NumAPs()
	kill := targetCount(n, cfg.Frac)
	type apDist struct {
		ap int
		d  float64
	}
	order := make([]apDist, n)
	for i := range m.APs {
		best := math.Inf(1)
		for _, w := range city.Water {
			if d := w.Footprint.DistToPoint(m.APs[i].Pos); d < best {
				best = d
			}
		}
		order[i] = apDist{ap: i, d: best}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].d != order[j].d {
			return order[i].d < order[j].d
		}
		return order[i].ap < order[j].ap
	})
	set := mesh.NewNodeSet(n)
	reach := 0.0
	for _, od := range order[:kill] {
		set = set.Add(od.ap)
		reach = od.d
	}
	return Injection{
		Mode:      ModeFlood,
		FailedSet: set,
		Desc: fmt.Sprintf("flood: %d/%d APs down within %.0f m of water (p=%.2f)",
			kill, n, reach, cfg.Frac),
	}, nil
}

// RecoverySchedule models injected repair: a failure realization that
// heals at a known instant — crews restore power, APs reboot — after which
// every AP is up. Before RecoverAt the static failed set (and any wrapped
// base schedule, e.g. churn) applies unchanged. It is the deterministic
// recovery model behind store-and-heal delivery (core.SendEventually) and
// its time-to-heal measurements.
type RecoverySchedule struct {
	failed    mesh.NodeSet
	base      sim.FailureSchedule
	recoverAt float64
}

// Recovery returns a schedule where the given APs are down until recoverAt
// and everything is up afterward.
func Recovery(failed mesh.NodeSet, recoverAt float64) *RecoverySchedule {
	return &RecoverySchedule{failed: failed, recoverAt: recoverAt}
}

// Down implements sim.FailureSchedule.
func (r *RecoverySchedule) Down(ap int, t float64) bool {
	if t >= r.recoverAt {
		return false
	}
	if r.failed.Contains(ap) {
		return true
	}
	return r.base != nil && r.base.Down(ap, t)
}

// RecoverAt returns the healing instant.
func (r *RecoverySchedule) RecoverAt() float64 { return r.recoverAt }

// WithRecovery converts an injection into a time-varying one that fully
// heals at recoverAt: the static failed set moves into a RecoverySchedule
// (wrapping any existing schedule, so churn injections heal too). The
// returned injection has no static failures — recovery only works through
// the schedule, since sim.Config.FailedSet never comes back up.
func (inj Injection) WithRecovery(recoverAt float64) Injection {
	out := inj
	out.FailedSet = nil
	out.Schedule = &RecoverySchedule{
		failed:    inj.FailedSet,
		base:      inj.Schedule,
		recoverAt: recoverAt,
	}
	out.Desc = fmt.Sprintf("%s; recovers at t=%.1fs", inj.Desc, recoverAt)
	return out
}

// ChurnSchedule is a per-AP alternating up/down schedule sampled from a
// two-state Markov process with exponential holding times. It implements
// sim.FailureSchedule via binary search over precomputed toggle instants,
// so lookups are read-only and safe for concurrent simulations.
type ChurnSchedule struct {
	// toggles[ap] holds the instants at which the AP flips state, ascending.
	toggles [][]float64
	// startDown[ap] is the AP's state at t = 0.
	startDown []bool
}

// Down implements sim.FailureSchedule.
func (s *ChurnSchedule) Down(ap int, t float64) bool {
	if ap < 0 || ap >= len(s.startDown) {
		return false
	}
	// Count toggles at or before t; each flips the state once.
	flips := sort.SearchFloat64s(s.toggles[ap], t)
	if flips < len(s.toggles[ap]) && s.toggles[ap][flips] == t {
		flips++
	}
	down := s.startDown[ap]
	if flips%2 == 1 {
		down = !down
	}
	return down
}

// DownFractionAt returns the fraction of APs down at time t (diagnostics).
func (s *ChurnSchedule) DownFractionAt(t float64) float64 {
	if len(s.startDown) == 0 {
		return 0
	}
	down := 0
	for ap := range s.startDown {
		if s.Down(ap, t) {
			down++
		}
	}
	return float64(down) / float64(len(s.startDown))
}

func injectChurn(m *mesh.Mesh, cfg Config) (Injection, error) {
	meanUp, meanDown := cfg.MeanUp, cfg.MeanDown
	if meanUp <= 0 || meanDown <= 0 {
		// Derive holding times from the target down-fraction:
		// frac = meanDown / (meanUp + meanDown).
		frac := cfg.Frac
		if frac <= 0 || frac >= 1 {
			return Injection{}, fmt.Errorf("faults: churn needs MeanUp/MeanDown or Frac in (0,1), got %v", frac)
		}
		meanDown = frac * DefaultChurnPeriod
		meanUp = DefaultChurnPeriod - meanDown
	}
	horizon := cfg.Horizon
	if horizon <= 0 {
		horizon = 60
	}
	n := m.NumAPs()
	s := &ChurnSchedule{
		toggles:   make([][]float64, n),
		startDown: make([]bool, n),
	}
	pDown := meanDown / (meanUp + meanDown)
	downAtZero := 0
	rng := rand.New(rand.NewSource(cfg.Seed))
	for ap := 0; ap < n; ap++ {
		// Stationary initial state, then alternating exponential holds.
		down := rng.Float64() < pDown
		s.startDown[ap] = down
		if down {
			downAtZero++
		}
		t := 0.0
		for {
			mean := meanUp
			if down {
				mean = meanDown
			}
			t += rng.ExpFloat64() * mean
			if t >= horizon {
				break
			}
			s.toggles[ap] = append(s.toggles[ap], t)
			down = !down
		}
	}
	return Injection{
		Mode:     ModeChurn,
		Schedule: s, // no static set: the schedule covers t = 0 too
		Desc: fmt.Sprintf("churn: %d APs, mean up %.3fs / down %.3fs (stationary down %.2f), %d down at t=0",
			n, meanUp, meanDown, pDown, downAtZero),
	}, nil
}
