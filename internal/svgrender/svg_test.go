package svgrender

import (
	"bytes"
	"strings"
	"testing"

	"citymesh/internal/citygen"
	"citymesh/internal/geo"
	"citymesh/internal/mesh"
	"citymesh/internal/osm"
	"citymesh/internal/sim"
)

func testCity() *osm.City {
	plan, err := citygen.Generate(citygen.SmallTestSpec(71))
	if err != nil {
		panic(err)
	}
	city := &osm.City{Name: "t", Bounds: plan.Bounds}
	for i, b := range plan.Buildings {
		city.Buildings = append(city.Buildings, &osm.Feature{
			ID: osm.ID(i + 1), Kind: osm.KindBuilding,
			Footprint: b.Footprint, Centroid: b.Footprint.Centroid(),
		})
	}
	return city
}

func TestCanvasShapes(t *testing.T) {
	c := New(geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(100, 50)}, 400)
	c.Polygon(geo.Polygon{geo.Pt(0, 0), geo.Pt(10, 0), geo.Pt(10, 10)}, "#ff0000", "none", 0.5)
	c.Line(geo.Pt(0, 0), geo.Pt(100, 50), "#000000", 1)
	c.Polyline([]geo.Point{geo.Pt(0, 0), geo.Pt(50, 25), geo.Pt(100, 0)}, "#00ff00", 2)
	c.Circle(geo.Pt(50, 25), 3, "#0000ff")
	c.OrientedRect(geo.OrientedRect{A: geo.Pt(10, 10), B: geo.Pt(90, 40), HalfWidth: 5}, "#cccccc", 0.3)
	c.OrientedRect(geo.OrientedRect{A: geo.Pt(50, 25), B: geo.Pt(50, 25), HalfWidth: 5}, "#cccccc", 0.3)

	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	svg := buf.String()
	for _, want := range []string{"<svg", "</svg>", "<polygon", "<line", "<polyline", "<circle"} {
		if !strings.Contains(svg, want) {
			t.Errorf("missing %q in output", want)
		}
	}
	if got := escapeText("label <&>"); got != "label &lt;&amp;&gt;" {
		t.Errorf("escaped text = %q", got)
	}
}

func TestCanvasCoordinateMapping(t *testing.T) {
	c := New(geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(100, 100)}, 200)
	// World (0,0) is bottom-left → pixel (0, 200); world (100,100) → (200, 0).
	x, y := c.px(geo.Pt(0, 0))
	if x != 0 || y != 200 {
		t.Errorf("px(0,0) = %v,%v", x, y)
	}
	x, y = c.px(geo.Pt(100, 100))
	if x != 200 || y != 0 {
		t.Errorf("px(100,100) = %v,%v", x, y)
	}
}

func TestCanvasDegenerate(t *testing.T) {
	// Zero-width bounds and zero pxWidth must not panic or divide by zero.
	c := New(geo.Rect{}, 0)
	c.Polygon(geo.Polygon{geo.Pt(0, 0)}, "#fff", "none", 1) // <3 vertices: ignored
	c.Polyline([]geo.Point{geo.Pt(0, 0)}, "#fff", 1)        // <2 points: ignored
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "<svg") {
		t.Error("no document produced")
	}
}

func TestRenderCity(t *testing.T) {
	city := testCity()
	city.Water = append(city.Water, &osm.Feature{
		Kind: osm.KindWater, Footprint: geo.RectPolygon(geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(50, 50)}),
	})
	var buf bytes.Buffer
	if err := RenderCity(&buf, city, 600); err != nil {
		t.Fatal(err)
	}
	svg := buf.String()
	if strings.Count(svg, "<polygon") < city.NumBuildings() {
		t.Errorf("only %d polygons for %d buildings", strings.Count(svg, "<polygon"), city.NumBuildings())
	}
}

func TestRenderMesh(t *testing.T) {
	city := testCity()
	m := mesh.Place(city, mesh.DefaultConfig())
	var buf bytes.Buffer
	if err := RenderMesh(&buf, city, m, 600); err != nil {
		t.Fatal(err)
	}
	if strings.Count(buf.String(), "<circle") != m.NumAPs() {
		t.Errorf("circles = %d, APs = %d", strings.Count(buf.String(), "<circle"), m.NumAPs())
	}
}

func TestRenderSimulation(t *testing.T) {
	city := testCity()
	m := mesh.Place(city, mesh.DefaultConfig())
	res := sim.Result{Transcript: make([]sim.APRecord, m.NumAPs())}
	res.Transcript[0] = sim.APRecord{Received: true, Forwarded: true}
	res.Transcript[1] = sim.APRecord{Received: true}
	conduits := []geo.OrientedRect{{A: geo.Pt(0, 0), B: geo.Pt(400, 300), HalfWidth: 25}}
	var buf bytes.Buffer
	if err := RenderSimulation(&buf, city, m, conduits, []int{0, 5, 9}, res, 600); err != nil {
		t.Fatal(err)
	}
	svg := buf.String()
	if strings.Count(svg, "<circle") != 2 {
		t.Errorf("circles = %d, want 2 (one forwarded, one received)", strings.Count(svg, "<circle"))
	}
	if !strings.Contains(svg, "<polyline") {
		t.Error("route polyline missing")
	}
}
