package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func unitSquare() Polygon {
	return Polygon{Pt(0, 0), Pt(1, 0), Pt(1, 1), Pt(0, 1)}
}

func TestPolygonArea(t *testing.T) {
	if a := unitSquare().Area(); !almostEq(a, 1, 1e-12) {
		t.Errorf("unit square area = %v", a)
	}
	// Clockwise winding gives negative signed area but same absolute area.
	cw := Polygon{Pt(0, 0), Pt(0, 1), Pt(1, 1), Pt(1, 0)}
	if sa := cw.SignedArea(); sa >= 0 {
		t.Errorf("clockwise signed area = %v, want negative", sa)
	}
	if a := cw.Area(); !almostEq(a, 1, 1e-12) {
		t.Errorf("clockwise area = %v", a)
	}
	tri := Polygon{Pt(0, 0), Pt(4, 0), Pt(0, 3)}
	if a := tri.Area(); !almostEq(a, 6, 1e-12) {
		t.Errorf("triangle area = %v, want 6", a)
	}
}

func TestPolygonCentroid(t *testing.T) {
	c := unitSquare().Centroid()
	if !almostEq(c.X, 0.5, 1e-12) || !almostEq(c.Y, 0.5, 1e-12) {
		t.Errorf("centroid = %v", c)
	}
	// Degenerate: vertex mean fallback.
	line := Polygon{Pt(0, 0), Pt(2, 0)}
	if c := line.Centroid(); c != Pt(1, 0) {
		t.Errorf("degenerate centroid = %v", c)
	}
}

func TestPolygonContains(t *testing.T) {
	sq := unitSquare()
	inside := []Point{Pt(0.5, 0.5), Pt(0.01, 0.99), Pt(0.999, 0.001)}
	outside := []Point{Pt(-0.1, 0.5), Pt(1.1, 0.5), Pt(0.5, -0.1), Pt(0.5, 1.1), Pt(2, 2)}
	for _, p := range inside {
		if !sq.Contains(p) {
			t.Errorf("Contains(%v) = false, want true", p)
		}
	}
	for _, p := range outside {
		if sq.Contains(p) {
			t.Errorf("Contains(%v) = true, want false", p)
		}
	}
}

func TestPolygonContainsConcave(t *testing.T) {
	// L-shape: the notch (top-right) is outside.
	l := Polygon{Pt(0, 0), Pt(2, 0), Pt(2, 1), Pt(1, 1), Pt(1, 2), Pt(0, 2)}
	if !l.Contains(Pt(0.5, 1.5)) {
		t.Error("point in L arm should be inside")
	}
	if l.Contains(Pt(1.5, 1.5)) {
		t.Error("point in notch should be outside")
	}
}

func TestPolygonDistToPoint(t *testing.T) {
	sq := unitSquare()
	if d := sq.DistToPoint(Pt(0.5, 0.5)); d != 0 {
		t.Errorf("inside dist = %v, want 0", d)
	}
	if d := sq.DistToPoint(Pt(2, 0.5)); !almostEq(d, 1, 1e-12) {
		t.Errorf("outside dist = %v, want 1", d)
	}
	if d := sq.DistToPoint(Pt(2, 2)); !almostEq(d, math.Sqrt2, 1e-12) {
		t.Errorf("corner dist = %v, want sqrt(2)", d)
	}
}

func TestPolygonGapTo(t *testing.T) {
	a := unitSquare()
	b := Polygon{Pt(3, 0), Pt(4, 0), Pt(4, 1), Pt(3, 1)}
	if g := a.GapTo(b); !almostEq(g, 2, 1e-12) {
		t.Errorf("gap = %v, want 2", g)
	}
	// Touching polygons have zero gap.
	c := Polygon{Pt(1, 0), Pt(2, 0), Pt(2, 1), Pt(1, 1)}
	if g := a.GapTo(c); g != 0 {
		t.Errorf("touching gap = %v, want 0", g)
	}
	// Overlapping polygons have zero gap.
	d := Polygon{Pt(0.5, 0.5), Pt(1.5, 0.5), Pt(1.5, 1.5), Pt(0.5, 1.5)}
	if g := a.GapTo(d); g != 0 {
		t.Errorf("overlap gap = %v, want 0", g)
	}
	// Containment has zero gap.
	inner := Polygon{Pt(0.4, 0.4), Pt(0.6, 0.4), Pt(0.6, 0.6), Pt(0.4, 0.6)}
	if g := a.GapTo(inner); g != 0 {
		t.Errorf("containment gap = %v, want 0", g)
	}
	// Symmetry.
	if a.GapTo(b) != b.GapTo(a) {
		t.Error("GapTo not symmetric")
	}
}

// regularPolygon returns an n-gon of the given circumradius centered at c,
// with the first vertex at angle phase (radians).
func regularPolygon(c Point, radius float64, n int, phase float64) Polygon {
	pg := make(Polygon, n)
	for i := range pg {
		a := phase + 2*math.Pi*float64(i)/float64(n)
		pg[i] = Point{c.X + radius*math.Cos(a), c.Y + radius*math.Sin(a)}
	}
	return pg
}

func TestRegularPolygon(t *testing.T) {
	hex := regularPolygon(Pt(0, 0), 1, 6, 0)
	if len(hex) != 6 {
		t.Fatalf("hexagon has %d vertices", len(hex))
	}
	// Area of a regular hexagon with circumradius 1 is 3*sqrt(3)/2.
	want := 3 * math.Sqrt(3) / 2
	if a := hex.Area(); !almostEq(a, want, 1e-9) {
		t.Errorf("hexagon area = %v, want %v", a, want)
	}
	c := hex.Centroid()
	if !almostEq(c.X, 0, 1e-9) || !almostEq(c.Y, 0, 1e-9) {
		t.Errorf("hexagon centroid = %v, want origin", c)
	}
}

// Property: the centroid of a convex polygon lies inside it.
func TestQuickConvexCentroidInside(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		n := 3 + rng.Intn(8)
		c := Pt(rng.Float64()*1000-500, rng.Float64()*1000-500)
		r := 1 + rng.Float64()*200
		pg := regularPolygon(c, r, n, rng.Float64()*math.Pi)
		if !pg.Contains(pg.Centroid()) {
			t.Fatalf("centroid %v outside polygon %v", pg.Centroid(), pg)
		}
	}
}

// Property: points generated strictly inside the bounding box of a regular
// polygon agree between Contains and a radial test (for regular polygons the
// incircle/circumcircle sandwich must hold).
func TestQuickRegularPolygonContainsSandwich(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		n := 3 + rng.Intn(9)
		r := 10 + rng.Float64()*100
		c := Pt(rng.Float64()*100, rng.Float64()*100)
		pg := regularPolygon(c, r, n, rng.Float64())
		inradius := r * math.Cos(math.Pi/float64(n))
		p := Pt(c.X+(rng.Float64()*2-1)*r*1.5, c.Y+(rng.Float64()*2-1)*r*1.5)
		d := p.Dist(c)
		switch {
		case d < inradius*0.999:
			if !pg.Contains(p) {
				t.Fatalf("point %v at dist %v < inradius %v not contained", p, d, inradius)
			}
		case d > r*1.001:
			if pg.Contains(p) {
				t.Fatalf("point %v at dist %v > circumradius %v contained", p, d, r)
			}
		}
	}
}

// Property: scaling a polygon by k scales its area by k^2.
func TestQuickAreaScaling(t *testing.T) {
	f := func(k float64) bool {
		k = math.Mod(math.Abs(k), 10) + 0.1
		pg := Polygon{Pt(0, 0), Pt(3, 0), Pt(4, 2), Pt(1, 3)}
		scaled := make(Polygon, len(pg))
		for i, p := range pg {
			scaled[i] = p.Scale(k)
		}
		return almostEq(scaled.Area(), pg.Area()*k*k, 1e-6*(1+pg.Area()*k*k))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
