package osm

import (
	"bytes"
	"strings"
	"testing"

	"citymesh/internal/geo"
)

const sampleXML = `<?xml version="1.0" encoding="UTF-8"?>
<osm version="0.6" generator="test">
  <bounds minlat="42.35" minlon="-71.11" maxlat="42.37" maxlon="-71.05"/>
  <node id="1" lat="42.360" lon="-71.090"/>
  <node id="2" lat="42.360" lon="-71.0895"/>
  <node id="3" lat="42.3605" lon="-71.0895"/>
  <node id="4" lat="42.3605" lon="-71.090"/>
  <node id="5" lat="42.361" lon="-71.091">
    <tag k="amenity" v="cafe"/>
    <tag k="name" v="A &amp; B &lt;Cafe&gt;"/>
  </node>
  <way id="100">
    <nd ref="1"/>
    <nd ref="2"/>
    <nd ref="3"/>
    <nd ref="4"/>
    <nd ref="1"/>
    <tag k="building" v="yes"/>
    <tag k="building:levels" v="12"/>
    <tag k="name" v="Tower"/>
  </way>
  <way id="101">
    <nd ref="1"/>
    <nd ref="3"/>
    <tag k="highway" v="residential"/>
  </way>
  <relation id="200">
    <member type="way" ref="100" role="outer"/>
    <tag k="type" v="multipolygon"/>
  </relation>
</osm>
`

func TestParse(t *testing.T) {
	doc, err := Parse(strings.NewReader(sampleXML))
	if err != nil {
		t.Fatal(err)
	}
	if !doc.HasBounds || doc.MinLat != 42.35 || doc.MaxLon != -71.05 {
		t.Errorf("bounds = %+v", doc)
	}
	if len(doc.Nodes) != 5 || len(doc.Ways) != 2 || len(doc.Relations) != 1 {
		t.Fatalf("counts = %d nodes, %d ways, %d relations",
			len(doc.Nodes), len(doc.Ways), len(doc.Relations))
	}
	n5 := doc.Nodes[5]
	if n5.Tags.Get("amenity") != "cafe" {
		t.Errorf("node 5 tags = %v", n5.Tags)
	}
	if got := n5.Tags.Get("name"); got != "A & B <Cafe>" {
		t.Errorf("escaped tag = %q", got)
	}
	w := doc.Ways[100]
	if !w.IsClosed() {
		t.Error("way 100 should be closed")
	}
	if len(w.Refs) != 5 || w.Refs[0] != 1 || w.Refs[4] != 1 {
		t.Errorf("way refs = %v", w.Refs)
	}
	if doc.Ways[101].IsClosed() {
		t.Error("way 101 should be open")
	}
	rel := doc.Relations[200]
	if len(rel.Members) != 1 || rel.Members[0].Ref != 100 || rel.Members[0].Role != "outer" {
		t.Errorf("relation members = %+v", rel.Members)
	}
}

func TestParseBadXML(t *testing.T) {
	if _, err := Parse(strings.NewReader("<osm><node id=\"x\"")); err == nil {
		t.Error("truncated XML should error")
	}
	if _, err := Parse(strings.NewReader(`<osm><bounds minlat="abc"/></osm>`)); err == nil {
		t.Error("bad bounds should error")
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	doc, err := Parse(strings.NewReader(sampleXML))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, doc); err != nil {
		t.Fatal(err)
	}
	doc2, err := Parse(&buf)
	if err != nil {
		t.Fatalf("reparse: %v\noutput:\n%s", err, buf.String())
	}
	if len(doc2.Nodes) != len(doc.Nodes) || len(doc2.Ways) != len(doc.Ways) ||
		len(doc2.Relations) != len(doc.Relations) {
		t.Fatal("element counts changed across round trip")
	}
	if got := doc2.Nodes[5].Tags.Get("name"); got != "A & B <Cafe>" {
		t.Errorf("escaped tag after round trip = %q", got)
	}
	for id, w := range doc.Ways {
		w2 := doc2.Ways[id]
		if w2 == nil || len(w2.Refs) != len(w.Refs) {
			t.Fatalf("way %d refs changed", id)
		}
	}
	if !doc2.HasBounds || doc2.MinLat != doc.MinLat {
		t.Error("bounds lost in round trip")
	}
}

func TestWriteDeterministic(t *testing.T) {
	doc, _ := Parse(strings.NewReader(sampleXML))
	var a, b bytes.Buffer
	if err := Write(&a, doc); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, doc); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("Write output not deterministic")
	}
}

func TestCenter(t *testing.T) {
	doc, _ := Parse(strings.NewReader(sampleXML))
	c := doc.Center()
	if c.Lat != 42.36 || c.Lon != -71.08 {
		t.Errorf("bounds center = %+v", c)
	}
	// Without bounds, falls back to node mean.
	doc.HasBounds = false
	c = doc.Center()
	if c.Lat < 42.35 || c.Lat > 42.37 {
		t.Errorf("node-mean center = %+v", c)
	}
	if got := NewDocument().Center(); got != (geo.LatLon{}) {
		t.Errorf("empty center = %+v", got)
	}
}

func TestWayPolygon(t *testing.T) {
	doc, _ := Parse(strings.NewReader(sampleXML))
	proj := geo.NewProjection(doc.Center())
	pg := doc.WayPolygon(doc.Ways[100], proj)
	if len(pg) != 4 {
		t.Fatalf("polygon has %d vertices, want 4", len(pg))
	}
	// ~41m x ~55m building; area should be in a plausible range.
	if a := pg.Area(); a < 1000 || a > 4000 {
		t.Errorf("area = %v", a)
	}
	if got := doc.WayPolygon(doc.Ways[101], proj); got != nil {
		t.Error("open way should give nil polygon")
	}
	// Missing node reference.
	doc.Ways[100].Refs[1] = 9999
	if got := doc.WayPolygon(doc.Ways[100], proj); got != nil {
		t.Error("way with missing node should give nil polygon")
	}
}

func TestExtractCity(t *testing.T) {
	doc, _ := Parse(strings.NewReader(sampleXML))
	city := ExtractCity("test", doc, 10)
	if city.NumBuildings() != 1 {
		t.Fatalf("buildings = %d, want 1", city.NumBuildings())
	}
	b := city.Buildings[0]
	if b.Kind != KindBuilding || b.Name != "Tower" || b.Levels != 12 {
		t.Errorf("building = %+v", b)
	}
	if b.ID != 100 {
		t.Errorf("building 0 came from way %d, want 100", b.ID)
	}
	if !b.Footprint.Contains(b.Centroid) {
		t.Error("centroid should be inside a convex building footprint")
	}
}

func TestExtractCityMinArea(t *testing.T) {
	doc, _ := Parse(strings.NewReader(sampleXML))
	city := ExtractCity("test", doc, 1e9)
	if city.NumBuildings() != 0 {
		t.Error("minArea filter should drop small buildings")
	}
}

func TestExtractWaterLineBuffered(t *testing.T) {
	xml := `<osm>
  <node id="1" lat="42.0" lon="-71.0"/>
  <node id="2" lat="42.0" lon="-70.99"/>
  <node id="3" lat="42.001" lon="-70.98"/>
  <way id="50">
    <nd ref="1"/><nd ref="2"/><nd ref="3"/>
    <tag k="waterway" v="river"/>
  </way>
</osm>`
	doc, err := Parse(strings.NewReader(xml))
	if err != nil {
		t.Fatal(err)
	}
	city := ExtractCity("river", doc, 10)
	if len(city.Water) != 1 {
		t.Fatalf("water features = %d, want 1", len(city.Water))
	}
	pg := city.Water[0].Footprint
	if pg.Area() <= 0 {
		t.Error("buffered river should have positive area")
	}
	// ~1.6 km long, 80 m wide river: area should exceed 80,000 m².
	if pg.Area() < 50000 {
		t.Errorf("river area = %v, looks too thin", pg.Area())
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		tags Tags
		kind FeatureKind
		ok   bool
	}{
		{Tags{"building": "yes"}, KindBuilding, true},
		{Tags{"building": "apartments"}, KindBuilding, true},
		{Tags{"natural": "water"}, KindWater, true},
		{Tags{"leisure": "park"}, KindPark, true},
		{Tags{"landuse": "grass"}, KindPark, true},
		{Tags{"highway": "motorway"}, KindHighway, true},
		{Tags{"highway": "residential"}, 0, false},
		{Tags{"amenity": "cafe"}, 0, false},
		{nil, 0, false},
	}
	for i, c := range cases {
		kind, ok := classify(c.tags)
		if ok != c.ok || (ok && kind != c.kind) {
			t.Errorf("case %d: classify(%v) = %v, %v", i, c.tags, kind, ok)
		}
	}
}

func TestXMLEscape(t *testing.T) {
	cases := map[string]string{
		"plain":  "plain",
		"a&b":    "a&amp;b",
		`<tag">`: "&lt;tag&quot;&gt;",
		"":       "",
	}
	for in, want := range cases {
		if got := xmlEscape(in); got != want {
			t.Errorf("xmlEscape(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestAtoiDefault(t *testing.T) {
	if atoiDefault("12", 0) != 12 || atoiDefault("", 7) != 7 || atoiDefault("x2", 7) != 7 {
		t.Error("atoiDefault misbehaves")
	}
}

func TestFeatureKindString(t *testing.T) {
	for k, want := range map[FeatureKind]string{
		KindBuilding: "building", KindWater: "water", KindPark: "park",
		KindHighway: "highway", FeatureKind(99): "unknown",
	} {
		if k.String() != want {
			t.Errorf("String(%d) = %q", k, k.String())
		}
	}
}
