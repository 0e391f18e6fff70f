// Dynamic disaster fronts: time-evolving failure schedules in which the
// set of dead APs is a *moving* region, not a snapshot. The static
// injectors (uniform/disk/flood) answer "how does the mesh cope
// with this much damage"; the fronts answer the paper's harder question —
// does delivery keep working while the disaster is still advancing.
//
// Both fronts implement sim.FailureSchedule over precomputed per-AP
// timelines, so Down is a read-only lookup: deterministic under the seed
// and safe for the parallel experiment runner's concurrent simulations.
package faults

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"citymesh/internal/geo"
	"citymesh/internal/mesh"
	"citymesh/internal/osm"
)

// FloodFrontConfig parameterizes an advancing waterline.
type FloodFrontConfig struct {
	// SpeedMps is the waterline's advance speed away from the mapped water
	// features, in meters per second (default 2 — a fast urban flash
	// flood, chosen so experiment-scale runs see the front move).
	SpeedMps float64
	// MaxReach caps how far from the water the front ever advances, in
	// meters; 0 leaves it unbounded.
	MaxReach float64
	// JitterS adds a per-AP uniform [0, JitterS) delay to its submergence
	// instant — buildings flood unevenly (elevation, drainage) — sampled
	// deterministically from Seed.
	JitterS float64
	// Seed drives the jitter sampling.
	Seed int64
}

// FloodFront is a waterline advancing along the city's mapped water at
// constant speed from t = 0, when the banks burst: AP i drowns at
// dist(i, water)/SpeedMps (+ jitter) and stays down. It implements
// sim.FailureSchedule.
type FloodFront struct {
	downAt []float64
}

// NewFloodFront precomputes every AP's submergence instant from its
// distance to the nearest water feature.
func NewFloodFront(m *mesh.Mesh, city *osm.City, cfg FloodFrontConfig) (*FloodFront, error) {
	if len(city.Water) == 0 {
		return nil, fmt.Errorf("%w: city %q has no water features for a flood front", ErrInapplicable, city.Name)
	}
	if cfg.SpeedMps <= 0 {
		cfg.SpeedMps = 2
	}
	f := &FloodFront{downAt: make([]float64, m.NumAPs())}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := range m.APs {
		best := math.Inf(1)
		for _, w := range city.Water {
			if d := w.Footprint.DistToPoint(m.APs[i].Pos); d < best {
				best = d
			}
		}
		if cfg.MaxReach > 0 && best > cfg.MaxReach {
			f.downAt[i] = math.Inf(1)
			// Keep the rng stream aligned: every AP draws exactly once.
			rng.Float64()
			continue
		}
		f.downAt[i] = best/cfg.SpeedMps + rng.Float64()*cfg.JitterS
	}
	return f, nil
}

// Down implements sim.FailureSchedule: an AP is down once the waterline
// has reached it, forever (flood water does not recede on mesh timescales;
// wrap with a RecoverySchedule for drained-and-restored scenarios).
func (f *FloodFront) Down(ap int, t float64) bool {
	if ap < 0 || ap >= len(f.downAt) {
		return false
	}
	// Beyond-MaxReach APs carry +Inf and must stay up even when callers
	// probe the final state with t = +Inf.
	return !math.IsInf(f.downAt[ap], 1) && t >= f.downAt[ap]
}

// DownFractionAt returns the fraction of APs submerged at time t.
func (f *FloodFront) DownFractionAt(t float64) float64 {
	if len(f.downAt) == 0 {
		return 0
	}
	n := 0
	for ap := range f.downAt {
		if f.Down(ap, t) {
			n++
		}
	}
	return float64(n) / float64(len(f.downAt))
}

// injectFloodFront realizes a ModeFloodFront config. Frac, when set in
// (0, 1), caps the front so at most that fraction of APs ever drowns (the
// MaxReach is derived from the Frac-quantile AP distance), making the
// dynamic front directly comparable to a static ModeFlood snapshot of the
// same magnitude.
func injectFloodFront(m *mesh.Mesh, city *osm.City, cfg Config) (Injection, error) {
	fc := FloodFrontConfig{
		SpeedMps: cfg.FrontSpeed,
		JitterS:  cfg.FrontJitter,
		Seed:     cfg.Seed,
	}
	if cfg.Frac > 0 && cfg.Frac < 1 {
		if len(city.Water) == 0 {
			return Injection{}, fmt.Errorf("%w: city %q has no water features for a flood front", ErrInapplicable, city.Name)
		}
		dists := make([]float64, m.NumAPs())
		for i := range m.APs {
			best := math.Inf(1)
			for _, w := range city.Water {
				if d := w.Footprint.DistToPoint(m.APs[i].Pos); d < best {
					best = d
				}
			}
			dists[i] = best
		}
		sort.Float64s(dists)
		k := targetCount(len(dists), cfg.Frac)
		if k > 0 {
			fc.MaxReach = dists[k-1]
		} else {
			fc.MaxReach = -1 // nothing ever drowns; NewFloodFront treats <=0 as unbounded, so clamp below
		}
	}
	if fc.MaxReach < 0 {
		return Injection{Mode: ModeFloodFront, Desc: "flood-front: frac 0, nothing drowns"}, nil
	}
	f, err := NewFloodFront(m, city, fc)
	if err != nil {
		return Injection{}, err
	}
	speed := fc.SpeedMps
	if speed <= 0 {
		speed = 2
	}
	return Injection{
		Mode:     ModeFloodFront,
		Schedule: f,
		Desc: fmt.Sprintf("flood-front: waterline %.1f m/s, final down fraction %.2f",
			speed, f.DownFractionAt(math.Inf(1))),
	}, nil
}

// The rolling blackout's rotation: a blackoutDistricts x blackoutDistricts
// grid over the city bounds (empty cells are skipped), each occupied
// district dark for blackoutOutageS seconds, back to back, in one pass.
const (
	blackoutDistricts = 4
	blackoutOutageS   = 10
)

// BlackoutConfig parameterizes a rolling district-by-district blackout.
type BlackoutConfig struct {
	// Seed shuffles the district rotation order.
	Seed int64
}

// RollingBlackout is a load-shedding rotation: the city is cut into
// districts and each district is switched off for a window, one after
// another in a seed-shuffled order, after which the grid stays up. It
// implements sim.FailureSchedule.
type RollingBlackout struct {
	// offS[ap] is the AP's window start.
	offS   []float64
	rounds int // number of occupied districts
}

// NewRollingBlackout builds the rotation for a realized mesh.
func NewRollingBlackout(m *mesh.Mesh, city *osm.City, cfg BlackoutConfig) (*RollingBlackout, error) {
	const k = blackoutDistricts
	b := city.Bounds
	cw, ch := b.Width()/float64(k), b.Height()/float64(k)
	if cw <= 0 || ch <= 0 {
		return nil, fmt.Errorf("faults: degenerate city bounds %v", b)
	}
	cell := func(p geo.Point) int {
		cx := int((p.X - b.Min.X) / cw)
		cy := int((p.Y - b.Min.Y) / ch)
		if cx < 0 {
			cx = 0
		}
		if cx >= k {
			cx = k - 1
		}
		if cy < 0 {
			cy = 0
		}
		if cy >= k {
			cy = k - 1
		}
		return cy*k + cx
	}
	// Occupied districts, in cell order, then shuffled into the rotation.
	apCell := make([]int, m.NumAPs())
	occupied := make(map[int]bool)
	for i := range m.APs {
		c := cell(m.APs[i].Pos)
		apCell[i] = c
		occupied[c] = true
	}
	cells := make([]int, 0, len(occupied))
	for c := range occupied {
		cells = append(cells, c)
	}
	sort.Ints(cells)
	rng := rand.New(rand.NewSource(cfg.Seed))
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	slot := make(map[int]int, len(cells))
	for i, c := range cells {
		slot[c] = i
	}
	rb := &RollingBlackout{
		offS:   make([]float64, m.NumAPs()),
		rounds: len(cells),
	}
	for i := range apCell {
		rb.offS[i] = float64(slot[apCell[i]]) * blackoutOutageS
	}
	return rb, nil
}

// NumDistricts returns the number of occupied districts in the rotation.
func (rb *RollingBlackout) NumDistricts() int { return rb.rounds }

// Down implements sim.FailureSchedule.
func (rb *RollingBlackout) Down(ap int, t float64) bool {
	if ap < 0 || ap >= len(rb.offS) || t < 0 {
		return false
	}
	off := rb.offS[ap]
	return t >= off && t < off+blackoutOutageS
}

// injectBlackout realizes a ModeBlackout config: one pass of the rotation.
func injectBlackout(m *mesh.Mesh, city *osm.City, cfg Config) (Injection, error) {
	rb, err := NewRollingBlackout(m, city, BlackoutConfig{Seed: cfg.Seed})
	if err != nil {
		return Injection{}, err
	}
	return Injection{
		Mode:     ModeBlackout,
		Schedule: rb,
		Desc: fmt.Sprintf("rolling blackout: %d districts, %ds windows",
			rb.NumDistricts(), blackoutOutageS),
	}, nil
}
