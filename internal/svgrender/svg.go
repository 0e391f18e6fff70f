// Package svgrender renders cities, AP meshes and simulation transcripts as
// SVG — the repository's stand-in for the paper's Figure 5 (footprints and
// AP graph) and Figure 7 (a single simulation: the chosen building route,
// the APs inside the rebroadcast conduit, and the APs that received but did
// not rebroadcast).
package svgrender

import (
	"fmt"
	"io"
	"strings"

	"citymesh/internal/geo"
)

// Canvas accumulates SVG shapes in world (meter) coordinates and writes
// them scaled to pixels. The y axis is flipped so north is up.
type Canvas struct {
	bounds geo.Rect
	scale  float64
	w, h   float64
	body   strings.Builder
	bg     string
}

// New returns a canvas covering bounds, rendered pxWidth pixels wide.
func New(bounds geo.Rect, pxWidth int) *Canvas {
	if pxWidth <= 0 {
		pxWidth = 800
	}
	w := bounds.Width()
	if w <= 0 {
		w = 1
	}
	scale := float64(pxWidth) / w
	return &Canvas{
		bounds: bounds,
		scale:  scale,
		w:      float64(pxWidth),
		h:      bounds.Height() * scale,
		bg:     "#ffffff",
	}
}

// SetBackground sets the page background color.
func (c *Canvas) SetBackground(color string) { c.bg = color }

func (c *Canvas) px(p geo.Point) (float64, float64) {
	return (p.X - c.bounds.Min.X) * c.scale, (c.bounds.Max.Y - p.Y) * c.scale
}

// Polygon draws a filled polygon.
func (c *Canvas) Polygon(pg geo.Polygon, fill, stroke string, opacity float64) {
	if len(pg) < 3 {
		return
	}
	var pts strings.Builder
	for i, p := range pg {
		x, y := c.px(p)
		if i > 0 {
			pts.WriteByte(' ')
		}
		fmt.Fprintf(&pts, "%.1f,%.1f", x, y)
	}
	fmt.Fprintf(&c.body, `<polygon points="%s" fill="%s" stroke="%s" fill-opacity="%.2f"/>`+"\n",
		pts.String(), fill, stroke, opacity)
}

// Line draws a segment with the given stroke width in pixels.
func (c *Canvas) Line(a, b geo.Point, stroke string, width float64) {
	x1, y1 := c.px(a)
	x2, y2 := c.px(b)
	fmt.Fprintf(&c.body, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="%.2f"/>`+"\n",
		x1, y1, x2, y2, stroke, width)
}

// Polyline draws a connected path.
func (c *Canvas) Polyline(pts []geo.Point, stroke string, width float64) {
	if len(pts) < 2 {
		return
	}
	var sb strings.Builder
	for i, p := range pts {
		x, y := c.px(p)
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%.1f,%.1f", x, y)
	}
	fmt.Fprintf(&c.body, `<polyline points="%s" fill="none" stroke="%s" stroke-width="%.2f"/>`+"\n",
		sb.String(), stroke, width)
}

// Circle draws a dot with radius in pixels.
func (c *Canvas) Circle(p geo.Point, rPx float64, fill string) {
	x, y := c.px(p)
	fmt.Fprintf(&c.body, `<circle cx="%.1f" cy="%.1f" r="%.2f" fill="%s"/>`+"\n", x, y, rPx, fill)
}

// OrientedRect draws a conduit rectangle (without end caps).
func (c *Canvas) OrientedRect(o geo.OrientedRect, fill string, opacity float64) {
	axis := o.B.Sub(o.A)
	if axis.Norm() == 0 {
		c.Circle(o.A, (o.HalfWidth+o.EndCap)*c.scale, fill)
		return
	}
	u := axis.Unit()
	perp := u.Perp().Scale(o.HalfWidth)
	a := o.A.Sub(u.Scale(o.EndCap))
	b := o.B.Add(u.Scale(o.EndCap))
	c.Polygon(geo.Polygon{a.Add(perp), b.Add(perp), b.Sub(perp), a.Sub(perp)}, fill, "none", opacity)
}

// WriteTo emits the complete SVG document.
func (c *Canvas) WriteTo(w io.Writer) (int64, error) {
	var out strings.Builder
	fmt.Fprintf(&out, `<?xml version="1.0" encoding="UTF-8"?>`+"\n")
	fmt.Fprintf(&out, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n",
		c.w, c.h, c.w, c.h)
	fmt.Fprintf(&out, `<rect width="100%%" height="100%%" fill="%s"/>`+"\n", c.bg)
	out.WriteString(c.body.String())
	out.WriteString("</svg>\n")
	n, err := io.WriteString(w, out.String())
	return int64(n), err
}

func escapeText(s string) string {
	s = strings.ReplaceAll(s, "&", "&amp;")
	s = strings.ReplaceAll(s, "<", "&lt;")
	s = strings.ReplaceAll(s, ">", "&gt;")
	return s
}
