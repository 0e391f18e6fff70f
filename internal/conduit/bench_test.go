package conduit

import (
	"math"
	"math/rand"
	"testing"

	"citymesh/internal/geo"
)

// containsExhaustive is the pre-prefilter containment loop: the full
// oriented-rectangle projection for every conduit, no bounding-box
// rejection. Kept here as the benchmark baseline so the prefilter's
// effect stays measurable (run with: go test -bench Contains ./internal/conduit).
func containsExhaustive(conduits []geo.OrientedRect, p geo.Point) bool {
	for _, o := range conduits {
		if o.Contains(p) {
			return true
		}
	}
	return false
}

// benchRoute builds a staircase of nRects conduits (alternating east and
// north legs, 200 m each, 50 m half-width) plus a deterministic set of
// query points: most far from the route (the common case for a
// city-scale flood — almost every AP is outside the conduit band), some
// on it.
func benchRoute(nRects int) ([]geo.OrientedRect, []geo.Point) {
	rects := make([]geo.OrientedRect, 0, nRects)
	cur := geo.Pt(0, 0)
	for i := 0; i < nRects; i++ {
		next := cur.Add(geo.Pt(200, 0))
		if i%2 == 1 {
			next = cur.Add(geo.Pt(0, 200))
		}
		rects = append(rects, geo.OrientedRect{A: cur, B: next, HalfWidth: 50, EndCap: 50})
		cur = next
	}
	rng := rand.New(rand.NewSource(7))
	pts := make([]geo.Point, 0, 256)
	for i := 0; i < 256; i++ {
		if i%8 == 0 {
			// On-route point: along some leg's axis.
			o := rects[rng.Intn(len(rects))]
			t := rng.Float64()
			pts = append(pts, geo.Pt(o.A.X+(o.B.X-o.A.X)*t, o.A.Y+(o.B.Y-o.A.Y)*t))
		} else {
			// Off-route point somewhere in a city-sized square around the
			// staircase.
			pts = append(pts, geo.Pt(rng.Float64()*4000-1000, rng.Float64()*4000-1000))
		}
	}
	return rects, pts
}

func BenchmarkContainsExhaustive(b *testing.B) {
	rects, pts := benchRoute(12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		containsExhaustive(rects, pts[i%len(pts)])
	}
}

func BenchmarkContainsPrefiltered(b *testing.B) {
	rects, pts := benchRoute(12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Contains(rects, pts[i%len(pts)])
	}
}

func BenchmarkRegionContains(b *testing.B) {
	rects, pts := benchRoute(12)
	r := NewRegion(rects)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Contains(pts[i%len(pts)])
	}
}

// TestPrefilterAgreesWithExhaustive fuzzes the three containment paths
// against each other: the prefiltered Contains and the cached Region must
// answer exactly like the exhaustive baseline for every point, including
// points straddling the bounding boxes.
func TestPrefilterAgreesWithExhaustive(t *testing.T) {
	rects, _ := benchRoute(9)
	region := NewRegion(rects)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20000; i++ {
		p := geo.Pt(rng.Float64()*3000-1000, rng.Float64()*3000-1000)
		want := containsExhaustive(rects, p)
		if got := Contains(rects, p); got != want {
			t.Fatalf("Contains(%v) = %v, exhaustive = %v", p, got, want)
		}
		if got := region.Contains(p); got != want {
			t.Fatalf("Region.Contains(%v) = %v, exhaustive = %v", p, got, want)
		}
	}
}

// TestMayContainIsConservative verifies the prefilter's defining
// property: it never rejects a point the full test would accept.
func TestMayContainIsConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 20000; i++ {
		o := geo.OrientedRect{
			A:         geo.Pt(rng.Float64()*500, rng.Float64()*500),
			B:         geo.Pt(rng.Float64()*500, rng.Float64()*500),
			HalfWidth: rng.Float64() * 80,
			EndCap:    rng.Float64() * 80,
		}
		p := geo.Pt(rng.Float64()*700-100, rng.Float64()*700-100)
		if o.Contains(p) && !o.MayContain(p) {
			t.Fatalf("prefilter rejected a contained point: rect %+v point %v", o, p)
		}
	}
}

func TestRegionBasics(t *testing.T) {
	var nilRegion *Region
	if nilRegion.Contains(geo.Pt(0, 0)) {
		t.Fatal("nil region must contain nothing")
	}
	empty := NewRegion(nil)
	if empty.Contains(geo.Pt(0, 0)) || len(empty.rects) != 0 {
		t.Fatal("empty region must contain nothing")
	}

	o := geo.OrientedRect{A: geo.Pt(0, 0), B: geo.Pt(100, 0), HalfWidth: 50, EndCap: 50}
	r := NewRegion([]geo.OrientedRect{o})
	if len(r.rects) != 1 {
		t.Fatalf("region holds %d rects", len(r.rects))
	}
	if !r.Contains(geo.Pt(50, 0)) {
		t.Fatal("axis point must be inside")
	}
	if r.Contains(geo.Pt(50, 51)) {
		t.Fatal("51 m off a 50 m half-width conduit must be outside")
	}
	// A corner just outside the oriented rect but inside its padded AABB:
	// the prefilter passes it through and the exact test rejects it.
	corner := geo.Pt(-o.EndCap-1, -o.HalfWidth-1)
	if math.Hypot(o.EndCap+1, o.HalfWidth+1) < math.Hypot(o.HalfWidth, o.EndCap) {
		t.Fatal("corner point not outside — test geometry wrong")
	}
	if r.Contains(corner) {
		t.Fatal("corner outside the oriented rect must be rejected")
	}
}
