package geo

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestGridInsertAndAt(t *testing.T) {
	pts := []Point{Pt(1, 1), Pt(50, 50), Pt(-30, 20)}
	g := NewGrid(10, pts)
	if len(g.pts) != 3 {
		t.Fatalf("grid holds %d points", len(g.pts))
	}
	for i, p := range pts {
		if got := g.pts[g.slot[i]]; got != p {
			t.Errorf("point %d = %v, want %v", i, got, p)
		}
	}
	b := g.Bounds()
	if b.Min != Pt(-30, 1) || b.Max != Pt(50, 50) {
		t.Errorf("Bounds = %+v", b)
	}
}

func TestGridWithinRadiusMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := make([]Point, 500)
	for i := range pts {
		pts[i] = Pt(rng.Float64()*1000, rng.Float64()*1000)
	}
	g := NewGrid(25, pts)
	for trial := 0; trial < 50; trial++ {
		c := Pt(rng.Float64()*1000, rng.Float64()*1000)
		r := rng.Float64() * 120
		var got []int
		g.WithinRadius(c, r, func(id int, _ Point) bool {
			got = append(got, id)
			return true
		})
		var want []int
		for i, p := range pts {
			if p.Dist(c) <= r {
				want = append(want, i)
			}
		}
		sort.Ints(got)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d ids, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: got %v want %v", trial, got, want)
			}
		}
	}
}

func TestGridWithinRadiusEarlyStop(t *testing.T) {
	var pts []Point
	for i := 0; i < 100; i++ {
		pts = append(pts, Pt(float64(i%10), float64(i/10)))
	}
	g := NewGrid(10, pts)
	n := 0
	g.WithinRadius(Pt(5, 5), 100, func(int, Point) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Errorf("early stop visited %d, want 5", n)
	}
}

func TestGridNearest(t *testing.T) {
	if id, d := NewGrid(10, nil).Nearest(Pt(0, 0), 0); id != -1 || !math.IsInf(d, 1) {
		t.Errorf("empty Nearest = %d, %v", id, d)
	}
	g := NewGrid(10, []Point{Pt(0, 0), Pt(100, 0), Pt(51, 0)})
	id, d := g.Nearest(Pt(60, 0), 0)
	if id != 2 || !almostEq(d, 9, 1e-12) {
		t.Errorf("Nearest = %d, %v; want 2, 9", id, d)
	}
	// With a tight maxRadius, a far query may find nothing.
	id, _ = g.Nearest(Pt(1000, 1000), 5)
	if id != -1 {
		t.Errorf("bounded Nearest = %d, want -1", id)
	}
}

func TestGridNearestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := make([]Point, 300)
	for i := range pts {
		pts[i] = Pt(rng.Float64()*2000-1000, rng.Float64()*2000-1000)
	}
	g := NewGrid(30, pts)
	for trial := 0; trial < 40; trial++ {
		c := Pt(rng.Float64()*2500-1250, rng.Float64()*2500-1250)
		gotID, gotD := g.Nearest(c, 0)
		wantD := math.Inf(1)
		for _, p := range pts {
			if d := p.Dist(c); d < wantD {
				wantD = d
			}
		}
		if gotID < 0 || !almostEq(gotD, wantD, 1e-9) {
			t.Fatalf("trial %d: Nearest d=%v, brute force d=%v", trial, gotD, wantD)
		}
	}
}

func TestGridZeroCellSize(t *testing.T) {
	g := NewGrid(0, []Point{Pt(0.5, 0.5)})
	found := false
	g.WithinRadius(Pt(0, 0), 1, func(int, Point) bool { found = true; return true })
	if !found {
		t.Error("grid with clamped cell size should still work")
	}
}

func BenchmarkGridWithinRadius(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]Point, 100000)
	for i := range pts {
		pts[i] = Pt(rng.Float64()*10000, rng.Float64()*10000)
	}
	g := NewGrid(50, pts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := Pt(rng.Float64()*10000, rng.Float64()*10000)
		n := 0
		g.WithinRadius(c, 50, func(int, Point) bool { n++; return true })
	}
}
