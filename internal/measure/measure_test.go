package measure

import (
	"math"
	"testing"

	"citymesh/internal/citygen"
	"citymesh/internal/geo"
	"citymesh/internal/mesh"
	"citymesh/internal/osm"
	"citymesh/internal/stats"
)

func planCity(seed int64) *osm.City {
	plan, err := citygen.Generate(citygen.SmallTestSpec(seed))
	if err != nil {
		panic(err)
	}
	city := &osm.City{Name: plan.Spec.Name, Bounds: plan.Bounds}
	for i, b := range plan.Buildings {
		city.Buildings = append(city.Buildings, &osm.Feature{
			ID: osm.ID(i + 1), Kind: osm.KindBuilding,
			Footprint: b.Footprint, Centroid: b.Footprint.Centroid(),
		})
	}
	return city
}

func TestWalkResampling(t *testing.T) {
	track := []geo.Point{geo.Pt(0, 0), geo.Pt(100, 0)}
	pts := walk(track, 10)
	if len(pts) != 11 {
		t.Fatalf("points = %d, want 11", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if d := pts[i].Dist(pts[i-1]); math.Abs(d-10) > 1e-9 {
			t.Fatalf("step %d = %v", i, d)
		}
	}
	// Multi-segment with carry.
	track = []geo.Point{geo.Pt(0, 0), geo.Pt(15, 0), geo.Pt(15, 15)}
	pts = walk(track, 10)
	if len(pts) != 4 { // 0, 10, (carry 5→) y=5, y=15
		t.Fatalf("multi-segment points = %d: %v", len(pts), pts)
	}
	if walk(nil, 10) != nil || walk(track, 0) != nil {
		t.Error("degenerate walks should be nil")
	}
}

func TestSurveyDetectsNearbyAPs(t *testing.T) {
	city := planCity(61)
	m := mesh.Place(city, mesh.DefaultConfig())
	track := SerpentineTrack(geo.Rect{Min: geo.Pt(100, 100), Max: geo.Pt(600, 400)}, 80)
	ds := Survey(m, "downtown", track, DefaultConfig())
	if len(ds.Samples) < 50 {
		t.Fatalf("samples = %d", len(ds.Samples))
	}
	row := Table1(ds)
	if row.Measurements != len(ds.Samples) {
		t.Error("Table1 measurement count mismatch")
	}
	if row.UniqueAPs <= 0 {
		t.Error("no APs detected in a dense city")
	}
	if row.String() == "" {
		t.Error("row String empty")
	}
	// Every detected AP must be within detectRange of the sample.
	for _, s := range ds.Samples {
		for _, id := range s.BSSIDs {
			if d := m.APs[id].Pos.Dist(s.Pos); d > detectRange+1e-9 {
				t.Fatalf("AP %d detected at %v m > range", id, d)
			}
		}
	}
}

func TestSurveyDeterministic(t *testing.T) {
	city := planCity(62)
	m := mesh.Place(city, mesh.DefaultConfig())
	track := LineTrack(geo.Pt(0, 300), geo.Pt(800, 300))
	a := Survey(m, "x", track, DefaultConfig())
	b := Survey(m, "x", track, DefaultConfig())
	if len(a.Samples) != len(b.Samples) {
		t.Fatal("nondeterministic sample count")
	}
	for i := range a.Samples {
		if len(a.Samples[i].BSSIDs) != len(b.Samples[i].BSSIDs) {
			t.Fatal("nondeterministic detections")
		}
	}
}

func TestMACsPerMeasurement(t *testing.T) {
	ds := Dataset{Samples: []Sample{
		{BSSIDs: []int{1, 2, 3}},
		{BSSIDs: nil},
		{BSSIDs: []int{7}},
	}}
	got := MACsPerMeasurement(ds)
	want := []float64{3, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("counts = %v", got)
		}
	}
}

func TestAPSpread(t *testing.T) {
	ds := Dataset{Samples: []Sample{
		{Pos: geo.Pt(0, 0), BSSIDs: []int{1, 2}},
		{Pos: geo.Pt(30, 0), BSSIDs: []int{1}},
		{Pos: geo.Pt(60, 0), BSSIDs: []int{1, 3}},
	}}
	spreads := APSpread(ds)
	// AP 1 seen at 0,30,60 → spread 60. APs 2 and 3 seen once → excluded.
	if len(spreads) != 1 || spreads[0] != 60 {
		t.Errorf("spreads = %v", spreads)
	}
}

func TestAPSpreadReflectsDetectRange(t *testing.T) {
	// The paper: spread estimates the transmission-region diameter, so it
	// should be bounded by 2×detectRange and commonly approach it.
	city := planCity(63)
	m := mesh.Place(city, mesh.DefaultConfig())
	ds := Survey(m, "r", SerpentineTrack(geo.Rect{Min: geo.Pt(50, 50), Max: geo.Pt(750, 550)}, 60), DefaultConfig())
	spreads := APSpread(ds)
	if len(spreads) == 0 {
		t.Fatal("no spreads")
	}
	s := stats.Summarize(spreads)
	if s.Max > 2*detectRange+1e-6 {
		t.Errorf("max spread %v exceeds diameter bound %v", s.Max, 2*detectRange)
	}
	if s.P50 < detectRange*0.3 {
		t.Errorf("median spread %v implausibly small for a thorough survey", s.P50)
	}
}

func TestCommonAPsDecaysWithDistance(t *testing.T) {
	city := planCity(64)
	m := mesh.Place(city, mesh.DefaultConfig())
	ds := Survey(m, "d", SerpentineTrack(geo.Rect{Min: geo.Pt(50, 50), Max: geo.Pt(750, 550)}, 70), DefaultConfig())
	b := CommonAPs(ds, 50, 0, 1)
	sums := b.Summaries()
	if len(sums) < 3 {
		t.Fatalf("bins = %d", len(sums))
	}
	// Pairs in the nearest bin share far more APs than pairs 300+ m apart.
	near := sums[0].Mean
	var far float64
	found := false
	for _, s := range sums {
		if s.Lo >= 300 {
			far = s.Mean
			found = true
			break
		}
	}
	if !found {
		t.Skip("survey too small for 300 m pairs")
	}
	if near <= far {
		t.Errorf("common APs do not decay: near %v <= far %v", near, far)
	}
	// Pairs beyond 2*detectRange can share nothing.
	for _, s := range sums {
		if s.Lo >= 2*detectRange && s.Max > 0 {
			t.Errorf("bin %v-%v shares %v APs beyond the detection diameter", s.Lo, s.Hi, s.Max)
		}
	}
}

func TestCommonAPsSampledPairs(t *testing.T) {
	city := planCity(65)
	m := mesh.Place(city, mesh.DefaultConfig())
	ds := Survey(m, "d", SerpentineTrack(geo.Rect{Min: geo.Pt(100, 100), Max: geo.Pt(500, 400)}, 80), DefaultConfig())
	full := CommonAPs(ds, 50, 0, 1)
	sampled := CommonAPs(ds, 50, 200, 1)
	nFull, nSampled := 0, 0
	for _, s := range full.Summaries() {
		nFull += s.N
	}
	for _, s := range sampled.Summaries() {
		nSampled += s.N
	}
	if nSampled > 200 || nSampled == 0 {
		t.Errorf("sampled pairs = %d", nSampled)
	}
	if nFull <= nSampled {
		t.Errorf("full pairs %d <= sampled %d", nFull, nSampled)
	}
	// Tiny datasets: CommonAPs handles n<2.
	if got := CommonAPs(Dataset{}, 50, 0, 1); len(got.Summaries()) != 0 {
		t.Error("empty dataset should produce no bins")
	}
}

func TestSerpentineTrack(t *testing.T) {
	r := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(100, 100)}
	track := SerpentineTrack(r, 50)
	if len(track) != 6 { // rows at y=0,50,100, two points each
		t.Fatalf("track = %v", track)
	}
	for _, p := range track {
		if !r.Contains(p) {
			t.Errorf("track point %v outside area", p)
		}
	}
	if got := SerpentineTrack(r, 0); len(got) < 2 {
		t.Error("clamped spacing should still produce a track")
	}
}

func TestSurveyConfigDefaults(t *testing.T) {
	city := planCity(66)
	m := mesh.Place(city, mesh.DefaultConfig())
	ds := Survey(m, "a", LineTrack(geo.Pt(0, 300), geo.Pt(400, 300)), Config{Seed: 1})
	if len(ds.Samples) == 0 {
		t.Error("zero config should apply defaults and sample")
	}
}
