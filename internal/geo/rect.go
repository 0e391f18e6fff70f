package geo

import "math"

// Rect is an axis-aligned rectangle. Min is the lower-left corner and Max
// the upper-right; a Rect with Min == Max is a degenerate point.
type Rect struct {
	Min, Max Point
}

// RectFromPoints returns the smallest Rect containing every point in pts.
// It returns the zero Rect when pts is empty.
func RectFromPoints(pts ...Point) Rect {
	if len(pts) == 0 {
		return Rect{}
	}
	r := Rect{Min: pts[0], Max: pts[0]}
	for _, p := range pts[1:] {
		r = r.ExpandToPoint(p)
	}
	return r
}

// ExpandToPoint returns r grown to contain p.
func (r Rect) ExpandToPoint(p Point) Rect {
	if p.X < r.Min.X {
		r.Min.X = p.X
	}
	if p.Y < r.Min.Y {
		r.Min.Y = p.Y
	}
	if p.X > r.Max.X {
		r.Max.X = p.X
	}
	if p.Y > r.Max.Y {
		r.Max.Y = p.Y
	}
	return r
}

// Pad returns r grown by d on every side.
func (r Rect) Pad(d float64) Rect {
	return Rect{
		Min: Point{r.Min.X - d, r.Min.Y - d},
		Max: Point{r.Max.X + d, r.Max.Y + d},
	}
}

// Union returns the smallest Rect containing both r and s.
func (r Rect) Union(s Rect) Rect {
	return r.ExpandToPoint(s.Min).ExpandToPoint(s.Max)
}

// Contains reports whether p lies inside r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Overlaps reports whether r and s share any area or boundary.
func (r Rect) Overlaps(s Rect) bool {
	return r.Min.X <= s.Max.X && s.Min.X <= r.Max.X &&
		r.Min.Y <= s.Max.Y && s.Min.Y <= r.Max.Y
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Corners returns the four corners of r in counterclockwise order starting
// from Min.
func (r Rect) Corners() [4]Point {
	return [4]Point{
		r.Min,
		{r.Max.X, r.Min.Y},
		r.Max,
		{r.Min.X, r.Max.Y},
	}
}

// OrientedRect is a rectangle of the given half-width extruded along the
// segment from A to B, optionally extended by EndCap beyond both endpoints.
// It is the geometric form of a CityMesh conduit: a region of width
// 2*HalfWidth following a waypoint-to-waypoint leg.
type OrientedRect struct {
	A, B      Point
	HalfWidth float64
	// EndCap extends the rectangle beyond A and B along the axis, so that
	// buildings at the waypoints themselves fall inside the conduit.
	EndCap float64
}

// Contains reports whether p lies inside the oriented rectangle.
func (o OrientedRect) Contains(p Point) bool {
	axis := o.B.Sub(o.A)
	l := axis.Norm()
	if l == 0 {
		// Degenerate conduit: a disc of radius HalfWidth+EndCap around A.
		return p.Dist(o.A) <= o.HalfWidth+o.EndCap
	}
	u := axis.Scale(1 / l)
	rel := p.Sub(o.A)
	along := rel.Dot(u)
	if along < -o.EndCap || along > l+o.EndCap {
		return false
	}
	across := math.Abs(rel.Cross(u))
	return across <= o.HalfWidth
}

// Bounds returns the axis-aligned bounding box of the oriented rectangle.
func (o OrientedRect) Bounds() Rect {
	pad := math.Hypot(o.HalfWidth, o.EndCap)
	return RectFromPoints(o.A, o.B).Pad(pad)
}

// MayContain is a conservative prefilter for Contains: it tests p against
// the axis-aligned box around the segment padded by HalfWidth+EndCap on
// every side — a superset of the oriented rectangle — using only
// comparisons and additions, no square roots. A false result means
// Contains(p) is certainly false; a true result means "run the full test".
func (o OrientedRect) MayContain(p Point) bool {
	pad := o.HalfWidth + o.EndCap
	minX, maxX := o.A.X, o.B.X
	if minX > maxX {
		minX, maxX = maxX, minX
	}
	if p.X < minX-pad || p.X > maxX+pad {
		return false
	}
	minY, maxY := o.A.Y, o.B.Y
	if minY > maxY {
		minY, maxY = maxY, minY
	}
	return p.Y >= minY-pad && p.Y <= maxY+pad
}
