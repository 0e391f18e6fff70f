package geo

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refGrid is the reference Grid: the map of growable cells the package
// shipped before the flat table, kept as the oracle the table is compared
// with. Its queries visit cells column by column, bottom to top, and the
// points of a cell in insertion order.
type refGrid struct {
	cell, invCell float64
	cells         map[[2]int32][]int32
	pts           []Point
}

func newRefGrid(cellSize float64, pts []Point) *refGrid {
	if cellSize <= 0 {
		cellSize = 1
	}
	g := &refGrid{cell: cellSize, invCell: 1 / cellSize, cells: make(map[[2]int32][]int32)}
	for _, p := range pts {
		k := g.key(p)
		g.cells[k] = append(g.cells[k], int32(len(g.pts)))
		g.pts = append(g.pts, p)
	}
	return g
}

func (g *refGrid) key(p Point) [2]int32 {
	return [2]int32{int32(math.Floor(p.X * g.invCell)), int32(math.Floor(p.Y * g.invCell))}
}

func (g *refGrid) visit(lo, hi Point, keep func(Point) bool, fn func(id int, p Point) bool) {
	minK, maxK := g.key(lo), g.key(hi)
	for cx := minK[0]; cx <= maxK[0]; cx++ {
		for cy := minK[1]; cy <= maxK[1]; cy++ {
			for _, id := range g.cells[[2]int32{cx, cy}] {
				if p := g.pts[id]; keep(p) && !fn(int(id), p) {
					return
				}
			}
		}
	}
}

func (g *refGrid) WithinRadius(center Point, r float64, fn func(id int, p Point) bool) {
	if r < 0 {
		return
	}
	r2 := r * r
	g.visit(Pt(center.X-r, center.Y-r), Pt(center.X+r, center.Y+r),
		func(p Point) bool { return p.Dist2(center) <= r2 }, fn)
}

// collect returns the ids a query visits, in visit order.
func collect(query func(fn func(id int, p Point) bool)) []int {
	var ids []int
	query(func(id int, _ Point) bool {
		ids = append(ids, id)
		return true
	})
	return ids
}

// fuzzPoints draws n points from rng: clustered in a box of side spread
// around a random origin, with some on exact multiples of cell and some
// repeated, so cell boundaries and duplicates are exercised.
func fuzzPoints(rng *rand.Rand, n int, spread, cell float64) []Point {
	origin := Pt((rng.Float64()-0.5)*4*spread, (rng.Float64()-0.5)*4*spread)
	pts := make([]Point, n)
	for i := range pts {
		switch {
		case i > 0 && rng.Intn(8) == 0:
			pts[i] = pts[rng.Intn(i)]
		case rng.Intn(8) == 0:
			pts[i] = Pt(math.Round(origin.X/cell+rng.Float64()*spread/cell)*cell,
				math.Round(origin.Y/cell+rng.Float64()*spread/cell)*cell)
		default:
			pts[i] = origin.Add(Pt(rng.Float64()*spread, rng.Float64()*spread))
		}
	}
	return pts
}

// FuzzGridMatchesReference checks that the flat grid visits exactly what
// the map grid visits, in the same order, for radius and rectangle queries
// inside, across and outside the points' bounds. Where the spread forced a
// larger cell the order may differ, and only the sets are compared.
func FuzzGridMatchesReference(f *testing.F) {
	f.Add(int64(1), uint16(200), uint8(3), 50.0)
	f.Add(int64(2), uint16(3), uint8(9), 1.0)   // wide enough for a larger cell
	f.Add(int64(3), uint16(0), uint8(2), 10.0)  // empty
	f.Add(int64(4), uint16(1), uint8(0), 0.0)   // one point, clamped cell
	f.Add(int64(5), uint16(900), uint8(6), 7.5) // many points, wider spread
	f.Fuzz(func(t *testing.T, seed int64, n uint16, spreadExp uint8, cell float64) {
		if math.IsNaN(cell) || math.IsInf(cell, 0) || math.Abs(cell) > 1e6 || (cell > 0 && cell < 1e-3) {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		refCell := cell
		if refCell <= 0 {
			refCell = 1
		}
		spread := math.Pow(10, float64(spreadExp%10)) * refCell / 100
		pts := fuzzPoints(rng, int(n%1024), spread, refCell)
		g, ref := NewGrid(cell, pts), newRefGrid(cell, pts)
		ordered := g.cell == ref.cell
		if !ordered {
			ref = newRefGrid(g.cell, pts)
		}
		if len(g.pts) != len(pts) {
			t.Fatalf("grid holds %d points, want %d", len(g.pts), len(pts))
		}
		for i, p := range pts {
			if got := g.pts[g.slot[i]]; got != p {
				t.Fatalf("point %d = %v, want %v", i, got, p)
			}
		}
		same := func(what string, got, want []int) {
			t.Helper()
			if !ordered {
				slices.Sort(got)
				slices.Sort(want)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s (cell %v of %v, %d points): grid visits %v, reference %v", what, g.cell, cell, len(pts), got, want)
			}
		}
		b := g.Bounds()
		for q := 0; q < 24; q++ {
			// Centres over the bounds grown by half their size each way.
			c := Pt(b.Min.X+(rng.Float64()*2-0.5)*b.Width(), b.Min.Y+(rng.Float64()*2-0.5)*b.Height())
			if q%4 == 0 && len(pts) > 0 {
				c = pts[rng.Intn(len(pts))]
			}
			r := rng.Float64() * 3 * g.cell
			switch {
			case q%6 == 5:
				r = -1
			case q%6 == 3 && len(pts) > 0:
				c, r = pts[rng.Intn(len(pts))], 0
			case q%6 == 1 && len(pts) > 0:
				// A point exactly on the boundary: its distance is r to
				// the last bit.
				p := pts[rng.Intn(len(pts))]
				c = Pt(p.X+(rng.Float64()*2-1)*2*g.cell, p.Y)
				r = math.Abs(p.X - c.X)
			}
			want := collect(func(fn func(int, Point) bool) { ref.WithinRadius(c, r, fn) })
			same("WithinRadius", collect(func(fn func(int, Point) bool) { g.WithinRadius(c, r, fn) }), want)
			skip := -1
			if q%3 != 0 && len(want) > 0 {
				skip = want[rng.Intn(len(want))]
			} else if q%3 != 0 {
				skip = rng.Intn(len(pts) + 1)
			}
			want = slices.DeleteFunc(want, func(id int) bool { return id == skip })
			checkFill(t, g, c, r, skip, want, ordered)
		}
	})
}

// checkFill checks FillWithinRadius against want, the reference visit with
// skip left out: a nil dst counts, a dst of the counted length is filled
// with want, a longer one starts with want, and a shorter one holds the
// start of want. Unless ordered, only the full sets are compared.
func checkFill(t *testing.T, g *Grid, c Point, r float64, skip int, want []int, ordered bool) {
	t.Helper()
	n := g.FillWithinRadius(nil, c, r, skip)
	if n != len(want) {
		t.Fatalf("FillWithinRadius(nil, %v, %v, %d) counts %d, reference %d", c, r, skip, n, len(want))
	}
	for _, size := range []int{n, n + 3, n / 2} {
		dst := make([]int32, size)
		if got := g.FillWithinRadius(dst, c, r, skip); got != n {
			t.Fatalf("FillWithinRadius into %d slots counts %d, into none %d", size, got, n)
		}
		k := min(size, n)
		got := make([]int, k)
		for i, id := range dst[:k] {
			got[i] = int(id)
		}
		exp := slices.Clone(want[:k])
		if !ordered {
			if k < n {
				continue
			}
			slices.Sort(got)
			slices.Sort(exp)
		}
		if !slices.Equal(got, exp) {
			t.Fatalf("FillWithinRadius(%d slots, %v, %v, %d) writes %v, reference %v", size, c, r, skip, got, exp)
		}
	}
}

// TestGridCellStaysLinear pins the larger cell: points so far apart that
// the requested cell would need billions of cells get a table linear in
// their count, and queries still find them.
func TestGridCellStaysLinear(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(1e6, 1e6), Pt(-1e6, 3), Pt(1e6+0.5, 1e6)}
	g := NewGrid(1, pts)
	if cells := len(g.start) - 1; cells > 8*len(pts)+1024 {
		t.Fatalf("%d cells for %d points", cells, len(pts))
	}
	if g.cell <= 1 {
		t.Fatalf("cell %v, want larger than the requested 1", g.cell)
	}
	got := collect(func(fn func(int, Point) bool) { g.WithinRadius(Pt(1e6, 1e6), 1, fn) })
	slices.Sort(got)
	if !slices.Equal(got, []int{1, 3}) {
		t.Errorf("WithinRadius found %v, want [1 3]", got)
	}
}
