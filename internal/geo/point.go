// Package geo provides planar geometry primitives for CityMesh.
//
// All coordinates are in meters in a local tangent plane. Latitude and
// longitude from map data are projected with an equirectangular projection
// (see Projection) before any geometric computation; city-scale extents keep
// the projection error well below the Wi-Fi transmission range that drives
// every distance threshold in the system.
package geo

import (
	"fmt"
	"math"
)

// Point is a location in the local plane, in meters.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p + q componentwise.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q componentwise.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by k.
func (p Point) Scale(k float64) Point { return Point{p.X * k, p.Y * k} }

// Dot returns the dot product of p and q viewed as vectors.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z component of the cross product of p and q viewed as
// vectors; its sign gives the orientation of the turn from p to q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Norm returns the Euclidean length of p viewed as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Dist2 returns the squared Euclidean distance between p and q. It avoids
// the square root on hot paths such as unit-disk graph construction.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Unit returns the unit vector in the direction of p. The zero vector is
// returned unchanged.
func (p Point) Unit() Point {
	n := p.Norm()
	if n == 0 {
		return Point{}
	}
	return Point{p.X / n, p.Y / n}
}

// Perp returns p rotated 90 degrees counterclockwise.
func (p Point) Perp() Point { return Point{-p.Y, p.X} }

// Lerp returns the point a fraction t of the way from p to q.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Segment is a directed line segment from A to B.
type Segment struct {
	A, B Point
}

// Length returns the length of the segment.
func (s Segment) Length() float64 { return s.A.Dist(s.B) }

// DistToPoint returns the minimum distance from p to any point on s.
func (s Segment) DistToPoint(p Point) float64 {
	d := s.B.Sub(s.A)
	l2 := d.Dot(d)
	if l2 == 0 {
		return p.Dist(s.A)
	}
	t := p.Sub(s.A).Dot(d) / l2
	t = math.Max(0, math.Min(1, t))
	return p.Dist(s.A.Add(d.Scale(t)))
}

// Intersects reports whether segments s and t share at least one point.
func (s Segment) Intersects(t Segment) bool {
	d1 := orient(t.A, t.B, s.A)
	d2 := orient(t.A, t.B, s.B)
	d3 := orient(s.A, s.B, t.A)
	d4 := orient(s.A, s.B, t.B)
	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	switch {
	case d1 == 0 && onSegment(t.A, t.B, s.A):
		return true
	case d2 == 0 && onSegment(t.A, t.B, s.B):
		return true
	case d3 == 0 && onSegment(s.A, s.B, t.A):
		return true
	case d4 == 0 && onSegment(s.A, s.B, t.B):
		return true
	}
	return false
}

// orient returns the orientation of c relative to the directed line a->b:
// positive for counterclockwise, negative for clockwise, zero for collinear.
func orient(a, b, c Point) float64 { return b.Sub(a).Cross(c.Sub(a)) }

// onSegment reports whether collinear point p lies within the bounding box
// of segment ab.
func onSegment(a, b, p Point) bool {
	return math.Min(a.X, b.X) <= p.X && p.X <= math.Max(a.X, b.X) &&
		math.Min(a.Y, b.Y) <= p.Y && p.Y <= math.Max(a.Y, b.Y)
}
