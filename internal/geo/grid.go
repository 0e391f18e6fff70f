package geo

import "math"

// Grid is an immutable uniform spatial hash over a fixed point set, used for
// unit-disk neighbor queries when building AP graphs over hundreds of
// thousands of nodes. Cell size should be on the order of the query radius:
// a radius-r query then touches at most a 3x3 block of cells.
//
// The cells are one flat table over the points' bounding box, built once by
// a counting pass. Cell (cx, cy) covers [cx, cx+1) x [cy, cy+1) cell sizes;
// the cells of a column are adjacent, so a query reads each column it
// touches as one contiguous run. Inside a cell, points keep the order they
// were given in. The queries visit cells column by column, bottom to top,
// so a grid over the same points and cell size always visits in the same
// order. A grid is safe for concurrent readers.
type Grid struct {
	cell, invCell float64
	// x0, y0 are the keys of the first column and row; nx, ny count them.
	x0, y0, nx, ny int
	// start[s] to start[s+1] index the points of cell slot s =
	// (cx-x0)*ny + (cy-y0) in ids and pts.
	start []int32
	ids   []int32
	pts   []Point
	// slot[id] is where point id sits in ids and pts.
	slot   []int32
	bounds Rect
}

// NewGrid returns the grid over pts with the given cell size; point i has
// index i in query results. Cell sizes that are zero or negative are
// replaced with 1. A spread so wide against the cell size that the
// bounding box would need more than about 8 cells per point doubles the
// cell until it does not, which keeps the table linear in the point count.
// Points must be finite.
func NewGrid(cellSize float64, pts []Point) *Grid {
	if cellSize <= 0 {
		cellSize = 1
	}
	g := &Grid{}
	if len(pts) > 0 {
		g.bounds = Rect{Min: pts[0], Max: pts[0]}
		for _, p := range pts[1:] {
			g.bounds = g.bounds.ExpandToPoint(p)
		}
	}
	maxCells := 8*float64(len(pts)) + 1024
	for {
		g.cell, g.invCell = cellSize, 1/cellSize
		nx := g.key(g.bounds.Max.X) - g.key(g.bounds.Min.X) + 1
		ny := g.key(g.bounds.Max.Y) - g.key(g.bounds.Min.Y) + 1
		if !(nx*ny > maxCells) {
			break
		}
		cellSize *= 2
	}
	if len(pts) > 0 {
		g.x0, g.y0 = int(g.key(g.bounds.Min.X)), int(g.key(g.bounds.Min.Y))
		g.nx = int(g.key(g.bounds.Max.X)) - g.x0 + 1
		g.ny = int(g.key(g.bounds.Max.Y)) - g.y0 + 1
	}

	// Count each cell's points, turn the counts into starts, then place the
	// points in order; start[s] runs ahead as slot s's cursor and is shifted
	// back afterwards.
	g.start = make([]int32, g.nx*g.ny+1)
	g.ids = make([]int32, len(pts))
	g.pts = make([]Point, len(pts))
	g.slot = make([]int32, len(pts))
	for i, p := range pts {
		s := (int(g.key(p.X))-g.x0)*g.ny + int(g.key(p.Y)) - g.y0
		g.slot[i] = int32(s)
		g.start[s+1]++
	}
	for s := 1; s < len(g.start); s++ {
		g.start[s] += g.start[s-1]
	}
	for i, p := range pts {
		s := g.slot[i]
		k := g.start[s]
		g.start[s]++
		g.ids[k], g.pts[k], g.slot[i] = int32(i), p, k
	}
	copy(g.start[1:], g.start[:len(g.start)-1])
	g.start[0] = 0
	return g
}

// Bounds returns the bounding box of all points.
func (g *Grid) Bounds() Rect { return g.bounds }

// key is the cell coordinate of v along one axis.
func (g *Grid) key(v float64) float64 { return math.Floor(v * g.invCell) }

// span returns the first and last of the n columns (or rows), numbered from
// key k0, whose keys lie between those of a and b; first > last when none
// does.
func (g *Grid) span(a, b float64, k0, n int) (first, last int) {
	lo := min(max(g.key(a)-float64(k0), 0), float64(n))
	hi := max(min(g.key(b)-float64(k0), float64(n-1)), -1)
	return int(lo), int(hi)
}

// disc returns the squared radius of a radius-r query around center and
// the block of cells it reads: columns x1 to x2 and, in each, rows y1 to
// y2. There is no column (x1 > x2) when r < 0 or the disc misses the
// bounds.
func (g *Grid) disc(center Point, r float64) (r2 float64, x1, x2, y1, y2 int) {
	if r < 0 {
		return 0, 0, -1, 0, 0
	}
	x1, x2 = g.span(center.X-r, center.X+r, g.x0, g.nx)
	y1, y2 = g.span(center.Y-r, center.Y+r, g.y0, g.ny)
	if y1 > y2 {
		x2 = x1 - 1
	}
	return r * r, x1, x2, y1, y2
}

// WithinRadius calls fn with the index and location of every point within
// radius r of center (inclusive). Iteration order is unspecified. If fn
// returns false the query stops early.
func (g *Grid) WithinRadius(center Point, r float64, fn func(id int, p Point) bool) {
	r2, x1, x2, y1, y2 := g.disc(center, r)
	for cx := x1; cx <= x2; cx++ {
		col := cx * g.ny
		for k := g.start[col+y1]; k < g.start[col+y2+1]; k++ {
			if p := g.pts[k]; p.Dist2(center) <= r2 && !fn(int(g.ids[k]), p) {
				return
			}
		}
	}
}

// FillWithinRadius writes to dst the index of every point within radius r
// of center (inclusive) except skip, in the order WithinRadius visits
// them, and returns how many there are. It writes no more than len(dst)
// indices, so a nil dst only counts them; where the count is below
// len(dst), the entries past it are overwritten with unspecified indices.
// Pass a negative skip to keep every point.
//
// Counting and then filling a slice of the counted length is how a sweep
// over every point of a large grid builds its neighbour rows: the scan
// calls nothing per point and has no branch on the distance test, whose
// outcome is close to a coin flip.
func (g *Grid) FillWithinRadius(dst []int32, center Point, r float64, skip int) int {
	r2, x1, x2, y1, y2 := g.disc(center, r)
	n := 0
	for cx := x1; cx <= x2; cx++ {
		col := cx * g.ny
		lo, hi := g.start[col+y1], g.start[col+y2+1]
		ids := g.ids[lo:hi]
		for k, p := range g.pts[lo:hi] {
			id := ids[k]
			if n < len(dst) {
				dst[n] = id
			}
			in := 0
			if p.Dist2(center) <= r2 {
				in = 1
			}
			if int(id) == skip {
				in = 0
			}
			n += in
		}
	}
	return n
}

// Nearest returns the index of the point nearest to center and its distance.
// It returns (-1, +Inf) when the grid is empty. maxRadius bounds the search;
// pass a non-positive value to search the whole grid.
func (g *Grid) Nearest(center Point, maxRadius float64) (int, float64) {
	if len(g.pts) == 0 {
		return -1, math.Inf(1)
	}
	limit := maxRadius
	if limit <= 0 {
		// Expand until the whole bounding box is covered.
		limit = math.Max(g.bounds.Width(), g.bounds.Height()) + g.cell
		if limit <= 0 {
			limit = g.cell
		}
	}
	bestID, bestD := -1, math.Inf(1)
	for r := g.cell; ; r *= 2 {
		g.WithinRadius(center, r, func(id int, p Point) bool {
			if d := p.Dist(center); d < bestD {
				bestID, bestD = id, d
			}
			return true
		})
		// A hit is only guaranteed nearest once the search radius exceeds
		// the best distance found so far.
		if bestID >= 0 && bestD <= r {
			return bestID, bestD
		}
		if r >= limit {
			return bestID, bestD
		}
	}
}
