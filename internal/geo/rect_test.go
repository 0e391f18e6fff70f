package geo

import (
	"math"
	"math/rand"
	"testing"
)

func TestRectFromPoints(t *testing.T) {
	r := RectFromPoints(Pt(1, 5), Pt(-2, 3), Pt(4, -1))
	want := Rect{Min: Pt(-2, -1), Max: Pt(4, 5)}
	if r != want {
		t.Errorf("RectFromPoints = %+v, want %+v", r, want)
	}
	if z := RectFromPoints(); z != (Rect{}) {
		t.Errorf("empty RectFromPoints = %+v", z)
	}
}

func TestRectContainsOverlaps(t *testing.T) {
	r := Rect{Min: Pt(0, 0), Max: Pt(10, 10)}
	if !r.Contains(Pt(5, 5)) || !r.Contains(Pt(0, 0)) || !r.Contains(Pt(10, 10)) {
		t.Error("Contains should include interior and boundary")
	}
	if r.Contains(Pt(10.1, 5)) {
		t.Error("Contains should exclude exterior")
	}
	if !r.Overlaps(Rect{Min: Pt(5, 5), Max: Pt(15, 15)}) {
		t.Error("overlapping rects should overlap")
	}
	if !r.Overlaps(Rect{Min: Pt(10, 0), Max: Pt(20, 10)}) {
		t.Error("touching rects should overlap")
	}
	if r.Overlaps(Rect{Min: Pt(11, 0), Max: Pt(20, 10)}) {
		t.Error("disjoint rects should not overlap")
	}
}

func TestRectGeometry(t *testing.T) {
	r := Rect{Min: Pt(1, 2), Max: Pt(4, 6)}
	if r.Width() != 3 || r.Height() != 4 {
		t.Errorf("W/H = %v/%v", r.Width(), r.Height())
	}
	if c := r.Center(); c != Pt(2.5, 4) {
		t.Errorf("Center = %v", c)
	}
	p := r.Pad(1)
	if p.Min != Pt(0, 1) || p.Max != Pt(5, 7) {
		t.Errorf("Pad = %+v", p)
	}
	u := r.Union(Rect{Min: Pt(-1, 0), Max: Pt(2, 3)})
	if u.Min != Pt(-1, 0) || u.Max != Pt(4, 6) {
		t.Errorf("Union = %+v", u)
	}
}

func TestOrientedRectContains(t *testing.T) {
	// Horizontal conduit from (0,0) to (100,0), half-width 25, no caps.
	o := OrientedRect{A: Pt(0, 0), B: Pt(100, 0), HalfWidth: 25}
	inside := []Point{Pt(50, 0), Pt(50, 24.9), Pt(50, -24.9), Pt(0, 0), Pt(100, 25)}
	outside := []Point{Pt(50, 25.1), Pt(-1, 0), Pt(101, 0), Pt(50, -26)}
	for _, p := range inside {
		if !o.Contains(p) {
			t.Errorf("Contains(%v) = false, want true", p)
		}
	}
	for _, p := range outside {
		if o.Contains(p) {
			t.Errorf("Contains(%v) = true, want false", p)
		}
	}
}

func TestOrientedRectEndCap(t *testing.T) {
	o := OrientedRect{A: Pt(0, 0), B: Pt(100, 0), HalfWidth: 25, EndCap: 10}
	if !o.Contains(Pt(-9, 0)) || !o.Contains(Pt(109, 0)) {
		t.Error("points within end caps should be contained")
	}
	if o.Contains(Pt(-11, 0)) || o.Contains(Pt(111, 0)) {
		t.Error("points beyond end caps should not be contained")
	}
}

func TestOrientedRectDegenerate(t *testing.T) {
	o := OrientedRect{A: Pt(5, 5), B: Pt(5, 5), HalfWidth: 10, EndCap: 2}
	if !o.Contains(Pt(5, 16.9)) {
		t.Error("degenerate conduit should be a disc of radius HalfWidth+EndCap")
	}
	if o.Contains(Pt(5, 17.1)) {
		t.Error("point beyond disc should not be contained")
	}
}

func TestOrientedRectDiagonalInvariance(t *testing.T) {
	// A conduit's membership must be rotation invariant: build one along a
	// diagonal and check the same relative geometry as the horizontal case.
	a, b := Pt(10, 10), Pt(110, 110)
	o := OrientedRect{A: a, B: b, HalfWidth: 25}
	mid := a.Lerp(b, 0.5)
	axis := b.Sub(a).Unit()
	perp := axis.Perp()
	if !o.Contains(mid.Add(perp.Scale(24.9))) {
		t.Error("point 24.9m off-axis should be inside")
	}
	if o.Contains(mid.Add(perp.Scale(25.1))) {
		t.Error("point 25.1m off-axis should be outside")
	}
}

func TestOrientedRectBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		o := OrientedRect{
			A:         Pt(rng.Float64()*1000, rng.Float64()*1000),
			B:         Pt(rng.Float64()*1000, rng.Float64()*1000),
			HalfWidth: rng.Float64() * 60,
			EndCap:    rng.Float64() * 30,
		}
		bounds := o.Bounds()
		// Sample points inside the conduit; all must be inside the bounds.
		for j := 0; j < 20; j++ {
			tt := rng.Float64()
			off := (rng.Float64()*2 - 1) * o.HalfWidth
			axis := o.B.Sub(o.A)
			var p Point
			if axis.Norm() == 0 {
				p = o.A.Add(Pt(off, 0))
			} else {
				p = o.A.Lerp(o.B, tt).Add(axis.Unit().Perp().Scale(off))
			}
			if o.Contains(p) && !bounds.Contains(p) {
				t.Fatalf("point %v in conduit but outside Bounds %+v", p, bounds)
			}
		}
	}
}

func TestProjectionRoundTrip(t *testing.T) {
	pr := NewProjection(LatLon{Lat: 42.3601, Lon: -71.0589}) // Boston
	coords := []LatLon{
		{42.3601, -71.0589},
		{42.37, -71.11},
		{42.35, -71.05},
	}
	for _, ll := range coords {
		back := pr.ToLatLon(pr.ToPlane(ll))
		if !almostEq(back.Lat, ll.Lat, 1e-9) || !almostEq(back.Lon, ll.Lon, 1e-9) {
			t.Errorf("round trip %v -> %v", ll, back)
		}
	}
}

func TestProjectionMatchesHaversine(t *testing.T) {
	pr := NewProjection(LatLon{Lat: 42.3601, Lon: -71.0589})
	a := LatLon{42.3601, -71.0589}
	b := LatLon{42.3701, -71.0689}
	planar := pr.ToPlane(a).Dist(pr.ToPlane(b))
	sphere := HaversineMeters(a, b)
	// At ~1.4 km the equirectangular error should be well under 0.1%.
	if math.Abs(planar-sphere)/sphere > 1e-3 {
		t.Errorf("planar %v vs haversine %v", planar, sphere)
	}
}

func TestHaversineKnownDistance(t *testing.T) {
	// MIT (42.3601,-71.0942) to Boston Common (42.3550,-71.0656): ~2.4 km.
	d := HaversineMeters(LatLon{42.3601, -71.0942}, LatLon{42.3550, -71.0656})
	if d < 2200 || d > 2600 {
		t.Errorf("MIT->Common = %v m, want ~2400", d)
	}
	if d := HaversineMeters(LatLon{1, 2}, LatLon{1, 2}); d != 0 {
		t.Errorf("zero distance = %v", d)
	}
}
