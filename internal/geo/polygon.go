package geo

import "math"

// Polygon is a simple polygon given by its vertices in order. The ring is
// implicitly closed: the last vertex connects back to the first. Vertex
// order may be clockwise or counterclockwise.
type Polygon []Point

// Bounds returns the axis-aligned bounding box of the polygon.
func (pg Polygon) Bounds() Rect { return RectFromPoints(pg...) }

// SignedArea returns the signed area of the polygon: positive when the
// vertices wind counterclockwise.
func (pg Polygon) SignedArea() float64 {
	if len(pg) < 3 {
		return 0
	}
	var s float64
	for i, p := range pg {
		q := pg[(i+1)%len(pg)]
		s += p.Cross(q)
	}
	return s / 2
}

// Area returns the absolute area of the polygon.
func (pg Polygon) Area() float64 { return math.Abs(pg.SignedArea()) }

// Centroid returns the area centroid of the polygon. For degenerate
// polygons (fewer than 3 vertices or zero area) it falls back to the
// vertex mean.
func (pg Polygon) Centroid() Point {
	a := pg.SignedArea()
	if len(pg) < 3 || a == 0 {
		var c Point
		if len(pg) == 0 {
			return c
		}
		for _, p := range pg {
			c = c.Add(p)
		}
		return c.Scale(1 / float64(len(pg)))
	}
	var cx, cy float64
	for i, p := range pg {
		q := pg[(i+1)%len(pg)]
		w := p.Cross(q)
		cx += (p.X + q.X) * w
		cy += (p.Y + q.Y) * w
	}
	k := 1 / (6 * a)
	return Point{cx * k, cy * k}
}

// Contains reports whether p lies inside the polygon (ray casting; points
// exactly on an edge may be reported either way).
func (pg Polygon) Contains(p Point) bool {
	n := len(pg)
	if n < 3 {
		return false
	}
	inside := false
	for i, j := 0, n-1; i < n; j, i = i, i+1 {
		a, b := pg[i], pg[j]
		if (a.Y > p.Y) != (b.Y > p.Y) {
			x := a.X + (p.Y-a.Y)*(b.X-a.X)/(b.Y-a.Y)
			if p.X < x {
				inside = !inside
			}
		}
	}
	return inside
}

// DistToPoint returns the minimum distance from p to the polygon boundary,
// or 0 if p is inside the polygon.
func (pg Polygon) DistToPoint(p Point) float64 {
	if pg.Contains(p) {
		return 0
	}
	n := len(pg)
	if n == 0 {
		return math.Inf(1)
	}
	if n == 1 {
		return p.Dist(pg[0])
	}
	best := math.Inf(1)
	for i := range pg {
		d := (Segment{pg[i], pg[(i+1)%n]}).DistToPoint(p)
		if d < best {
			best = d
		}
	}
	return best
}

// GapTo returns the minimum distance between the boundaries of pg and other,
// or 0 if they overlap or one contains the other. It is the inter-building
// "gap" distance used for building-graph edge prediction.
func (pg Polygon) GapTo(other Polygon) float64 {
	if len(pg) == 0 || len(other) == 0 {
		return math.Inf(1)
	}
	// Overlap / containment fast paths.
	if pg.Contains(other[0]) || other.Contains(pg[0]) {
		return 0
	}
	best := math.Inf(1)
	for i := range pg {
		si := Segment{pg[i], pg[(i+1)%len(pg)]}
		for j := range other {
			sj := Segment{other[j], other[(j+1)%len(other)]}
			if si.Intersects(sj) {
				return 0
			}
			d := math.Min(
				math.Min(si.DistToPoint(sj.A), si.DistToPoint(sj.B)),
				math.Min(sj.DistToPoint(si.A), sj.DistToPoint(si.B)),
			)
			if d < best {
				best = d
			}
		}
	}
	return best
}

// RectPolygon returns the polygon form of an axis-aligned rectangle.
func RectPolygon(r Rect) Polygon {
	c := r.Corners()
	return Polygon{c[0], c[1], c[2], c[3]}
}
