// Package measure simulates the paper's §2 measurement study. The authors
// collected Wi-Fi beacon frames by walking and bicycling through four
// Boston-area survey areas (downtown, campus, residential, river bank) with
// a 2.4 GHz scanner sampling at 0.2–0.4 Hz; each measurement records a GPS
// position and the set of BSSIDs heard.
//
// Here the same generative process runs against a synthetic city's realized
// AP mesh: a scanner moves along a survey track, taking samples at the
// configured rate, and detects each AP within range with a probability that
// decays with distance (beacon loss). The package then computes the exact
// statistics the paper reports: Table 1 (measurements and unique APs per
// area), Figure 1a (CDF of MACs per measurement), Figure 1b (CDF of per-AP
// location spread) and Figure 2 (common APs vs. measurement-pair distance).
package measure

import (
	"fmt"
	"math"
	"math/rand"

	"citymesh/internal/geo"
	"citymesh/internal/mesh"
	"citymesh/internal/stats"
)

const (
	// detectRange is the maximum distance in meters at which a beacon can
	// be heard. Wardriving detection reaches farther than usable links;
	// the paper's observed per-AP spreads imply radii of 27–84 m.
	detectRange float64 = 90
	// reliableFrac is the fraction of detectRange within which detection
	// is certain; beyond it detection probability falls linearly to zero
	// at detectRange.
	reliableFrac float64 = 0.45
	// sampleHz is the scan rate (the paper: 0.2–0.4 Hz).
	sampleHz float64 = 0.3
)

// Config parameterizes the simulated survey.
type Config struct {
	// SpeedMps is the surveyor's speed (walking ~1.4, cycling ~4).
	SpeedMps float64
	// Seed drives detection randomness.
	Seed int64
}

// DefaultConfig mirrors the paper's walking survey.
func DefaultConfig() Config {
	return Config{SpeedMps: 1.4, Seed: 1}
}

// Sample is one measurement: a position and the AP ids (standing in for
// BSSIDs) heard there.
type Sample struct {
	Pos    geo.Point
	TimeS  float64
	BSSIDs []int
}

// Dataset is the outcome of surveying one area.
type Dataset struct {
	Area    string
	Samples []Sample
}

// Survey walks the polyline track through the mesh, sampling beacons. The
// sampling interval in meters is SpeedMps / sampleHz.
func Survey(m *mesh.Mesh, area string, track []geo.Point, cfg Config) Dataset {
	if cfg.SpeedMps <= 0 {
		cfg.SpeedMps = DefaultConfig().SpeedMps
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ds := Dataset{Area: area}
	step := cfg.SpeedMps / sampleHz
	tm := 0.0
	for _, pos := range walk(track, step) {
		s := Sample{Pos: pos, TimeS: tm}
		tm += 1 / sampleHz
		scan(m, pos, rng, &s)
		ds.Samples = append(ds.Samples, s)
	}
	return ds
}

// scan detects APs around pos.
func scan(m *mesh.Mesh, pos geo.Point, rng *rand.Rand, s *Sample) {
	const reliable = detectRange * reliableFrac
	// Note: the grid query must not allocate per AP; collect into s.BSSIDs.
	m.Grid().WithinRadius(pos, detectRange, func(id int, p geo.Point) bool {
		d := p.Dist(pos)
		prob := 1.0
		if d > reliable {
			prob = 1 - (d-reliable)/(detectRange-reliable)
		}
		if prob >= 1 || rng.Float64() < prob {
			s.BSSIDs = append(s.BSSIDs, id)
		}
		return true
	})
}

// walk resamples a polyline at uniform arc-length spacing.
func walk(track []geo.Point, step float64) []geo.Point {
	if len(track) == 0 || step <= 0 {
		return nil
	}
	out := []geo.Point{track[0]}
	carry := 0.0
	for i := 0; i+1 < len(track); i++ {
		a, b := track[i], track[i+1]
		segLen := a.Dist(b)
		if segLen == 0 {
			continue
		}
		pos := carry
		for pos+step <= segLen {
			pos += step
			out = append(out, a.Lerp(b, pos/segLen))
		}
		carry = pos - segLen // negative leftover carried into next segment
	}
	return out
}

// Table1Row is one row of the paper's Table 1.
type Table1Row struct {
	Area         string
	Measurements int
	UniqueAPs    int
}

// Table1 summarizes a dataset into its Table 1 row.
func Table1(ds Dataset) Table1Row {
	uniq := make(map[int]struct{})
	for _, s := range ds.Samples {
		for _, b := range s.BSSIDs {
			uniq[b] = struct{}{}
		}
	}
	return Table1Row{Area: ds.Area, Measurements: len(ds.Samples), UniqueAPs: len(uniq)}
}

// MACsPerMeasurement returns the number of MAC addresses seen at each
// measurement — the sample behind Figure 1a's CDF.
func MACsPerMeasurement(ds Dataset) []float64 {
	out := make([]float64, len(ds.Samples))
	for i, s := range ds.Samples {
		out[i] = float64(len(s.BSSIDs))
	}
	return out
}

// APSpread returns, for every AP seen at two or more measurements, the
// maximum distance between any two positions where it was seen — Figure
// 1b's sample. The paper interprets spread as an estimate of the diameter
// of the transmission region.
func APSpread(ds Dataset) []float64 {
	positions := make(map[int][]geo.Point)
	for _, s := range ds.Samples {
		for _, b := range s.BSSIDs {
			positions[b] = append(positions[b], s.Pos)
		}
	}
	var out []float64
	for _, pts := range positions {
		if len(pts) < 2 {
			continue
		}
		best := 0.0
		for i := 0; i < len(pts); i++ {
			for j := i + 1; j < len(pts); j++ {
				if d := pts[i].Dist2(pts[j]); d > best {
					best = d
				}
			}
		}
		out = append(out, math.Sqrt(best))
	}
	return out
}

// CommonAPs bins every pair of measurements by their distance and records
// the number of APs heard at both — Figure 2. maxPairs caps the number of
// pairs examined (sampled deterministically) to keep large surveys cheap;
// pass 0 for all pairs.
func CommonAPs(ds Dataset, binWidth float64, maxPairs int, seed int64) *stats.Binned {
	b := stats.NewBinned(binWidth)
	n := len(ds.Samples)
	if n < 2 {
		return b
	}
	sets := make([]map[int]struct{}, n)
	for i, s := range ds.Samples {
		sets[i] = make(map[int]struct{}, len(s.BSSIDs))
		for _, id := range s.BSSIDs {
			sets[i][id] = struct{}{}
		}
	}
	total := n * (n - 1) / 2
	if maxPairs <= 0 || maxPairs >= total {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				addPair(b, ds, sets, i, j)
			}
		}
		return b
	}
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < maxPairs; k++ {
		i := rng.Intn(n)
		j := rng.Intn(n)
		if i == j {
			continue
		}
		addPair(b, ds, sets, i, j)
	}
	return b
}

func addPair(b *stats.Binned, ds Dataset, sets []map[int]struct{}, i, j int) {
	common := 0
	si, sj := sets[i], sets[j]
	if len(sj) < len(si) {
		si, sj = sj, si
	}
	for id := range si {
		if _, ok := sj[id]; ok {
			common++
		}
	}
	b.Add(ds.Samples[i].Pos.Dist(ds.Samples[j].Pos), float64(common))
}

// SerpentineTrack builds a lawnmower survey path over r with the given pass
// spacing, the shape of a thorough area survey.
func SerpentineTrack(r geo.Rect, spacing float64) []geo.Point {
	if spacing <= 0 {
		spacing = 50
	}
	var track []geo.Point
	y := r.Min.Y
	leftToRight := true
	for y <= r.Max.Y {
		if leftToRight {
			track = append(track, geo.Pt(r.Min.X, y), geo.Pt(r.Max.X, y))
		} else {
			track = append(track, geo.Pt(r.Max.X, y), geo.Pt(r.Min.X, y))
		}
		leftToRight = !leftToRight
		y += spacing
	}
	return track
}

// LineTrack is a straight survey path (the river-bank walk).
func LineTrack(a, b geo.Point) []geo.Point { return []geo.Point{a, b} }

// String renders the Table 1 row like the paper's table.
func (r Table1Row) String() string {
	return fmt.Sprintf("%-12s %8d %10d", r.Area, r.Measurements, r.UniqueAPs)
}
