package mobility

import (
	"math"
	"testing"

	"citymesh/internal/geo"
	"citymesh/internal/measure"
)

func TestCompileRejectsDegenerate(t *testing.T) {
	if _, err := NewTrack(nil, 1, 0, false); err == nil {
		t.Error("empty waypoints must not compile")
	}
	if _, err := NewTrack([]geo.Point{geo.Pt(0, 0)}, 0, 0, false); err == nil {
		t.Error("zero speed must not compile")
	}
	if _, err := NewTrack([]geo.Point{geo.Pt(0, 0)}, -2, 0, false); err == nil {
		t.Error("negative speed must not compile")
	}
}

func TestOpenTrackClampsAtEnds(t *testing.T) {
	tr, err := NewTrack([]geo.Point{geo.Pt(0, 0), geo.Pt(100, 0)}, 10, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.PosAt(0); got != geo.Pt(0, 0) {
		t.Errorf("before start: got %v", got)
	}
	if got := tr.PosAt(5); got != geo.Pt(0, 0) {
		t.Errorf("at start: got %v", got)
	}
	mid := tr.PosAt(10) // 5 s under way at 10 m/s
	if math.Abs(mid.X-50) > 1e-9 || mid.Y != 0 {
		t.Errorf("midpoint: got %v, want (50,0)", mid)
	}
	if got := tr.PosAt(1e6); got != geo.Pt(100, 0) {
		t.Errorf("after end must park at final waypoint: got %v", got)
	}
}

func TestLoopWrapsDeterministically(t *testing.T) {
	tr, err := NewTrack([]geo.Point{geo.Pt(0, 0), geo.Pt(100, 0), geo.Pt(100, 50), geo.Pt(0, 50)}, 10, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tr.total, 300.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("circumference: got %v want %v", got, want)
	}
	if got, want := tr.Period(), 30.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("period: got %v want %v", got, want)
	}
	// One full period later the bus is back at the same spot — for any t.
	for _, tm := range []float64{0, 3.7, 12.25, 29.9} {
		a, b := tr.PosAt(tm), tr.PosAt(tm+tr.Period())
		if a.Dist(b) > 1e-6 {
			t.Errorf("t=%v: loop not periodic: %v vs %v", tm, a, b)
		}
	}
	// The closing segment (back edge from (0,50) to (0,0)) is traversed:
	// at arc 275 m (t=27.5 s) the bus is at (0, 25).
	p := tr.PosAt(27.5)
	if math.Abs(p.X) > 1e-9 || math.Abs(p.Y-25) > 1e-9 {
		t.Errorf("closing segment: got %v, want (0,25)", p)
	}
}

func TestSpeedIsConstantAlongTrack(t *testing.T) {
	walk := measure.SerpentineTrack(geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(200, 200)}, 50)
	tr, err := NewTrack(walk, 1.4, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	// Sampled displacement per dt never exceeds speed*dt (corners can make
	// it smaller, never larger).
	const dt = 0.25
	for tm := 0.0; tm < 60; tm += dt {
		d := tr.PosAt(tm).Dist(tr.PosAt(tm + dt))
		if d > 1.4*dt+1e-9 {
			t.Fatalf("t=%v: moved %v m in %v s at 1.4 m/s", tm, d, dt)
		}
	}
}

func TestSinglePointTrackIsStationary(t *testing.T) {
	tr, err := NewTrack([]geo.Point{geo.Pt(7, 9)}, 3, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range []float64{0, 1, 100} {
		if got := tr.PosAt(tm); got != geo.Pt(7, 9) {
			t.Errorf("t=%v: got %v", tm, got)
		}
	}
}

func TestZeroLengthLoopDoesNotDivide(t *testing.T) {
	// All waypoints identical: total length 0; PosAt must not NaN.
	tr, err := NewTrack([]geo.Point{geo.Pt(1, 1), geo.Pt(1, 1)}, 2, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	p := tr.PosAt(42)
	if math.IsNaN(p.X) || math.IsNaN(p.Y) {
		t.Fatalf("NaN position %v", p)
	}
	if tr.Period() != 0 {
		t.Errorf("degenerate loop period: got %v, want 0", tr.Period())
	}
}
