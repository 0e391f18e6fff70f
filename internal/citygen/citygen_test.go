package citygen

import (
	"bytes"
	"testing"

	"citymesh/internal/geo"
	"citymesh/internal/osm"
)

func TestGenerateSmall(t *testing.T) {
	p, err := Generate(SmallTestSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Buildings) < 50 {
		t.Fatalf("only %d buildings generated", len(p.Buildings))
	}
	for i, b := range p.Buildings {
		if b.Footprint.Area() <= 0 {
			t.Fatalf("building %d has non-positive area", i)
		}
		if b.Levels < 1 {
			t.Fatalf("building %d has %d levels", i, b.Levels)
		}
		c := b.Footprint.Centroid()
		if !p.Bounds.Pad(5).Contains(c) {
			t.Fatalf("building %d centroid %v outside city bounds", i, c)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(SmallTestSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(SmallTestSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Buildings) != len(b.Buildings) {
		t.Fatalf("nondeterministic building count: %d vs %d", len(a.Buildings), len(b.Buildings))
	}
	for i := range a.Buildings {
		if a.Buildings[i].Footprint[0] != b.Buildings[i].Footprint[0] {
			t.Fatalf("building %d differs between runs", i)
		}
	}
	c, err := Generate(SmallTestSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Buildings) == len(a.Buildings) {
		same := true
		for i := range c.Buildings {
			if c.Buildings[i].Footprint[0] != a.Buildings[i].Footprint[0] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical cities")
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []Spec{
		{Width: 0, Height: 100, BlockW: 10, BlockH: 10},
		{Width: 100, Height: 100, BlockW: 0, BlockH: 10},
		{Width: 100, Height: 100, BlockW: 10, BlockH: 10, StreetW: 20},
	}
	for i, s := range bad {
		if _, err := Generate(s); err == nil {
			t.Errorf("spec %d should fail validation", i)
		}
	}
}

func TestDistrictsAssigned(t *testing.T) {
	p, err := Generate(SmallTestSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[District]int{}
	for _, b := range p.Buildings {
		counts[b.District]++
	}
	if counts[Downtown] == 0 {
		t.Error("no downtown buildings")
	}
	if counts[Residential] == 0 {
		t.Error("no residential buildings")
	}
	// Downtown buildings should be larger on average.
	var dtArea, resArea float64
	for _, b := range p.Buildings {
		switch b.District {
		case Downtown:
			dtArea += b.Footprint.Area() / float64(counts[Downtown])
		case Residential:
			resArea += b.Footprint.Area() / float64(counts[Residential])
		}
	}
	if dtArea <= resArea {
		t.Errorf("downtown mean area %.0f <= residential %.0f", dtArea, resArea)
	}
}

func TestRiverSuppressesBuildings(t *testing.T) {
	s := SmallTestSpec(5)
	s.Rivers = []RiverSpec{{Start: geo.Pt(0, 300), End: geo.Pt(800, 300), Width: 120}}
	p, err := Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	river := riverPolygon(s.Rivers[0])
	for i, b := range p.Buildings {
		if river.Contains(b.Footprint.Centroid()) {
			t.Fatalf("building %d sits in the river", i)
		}
	}
	if len(p.Water) != 1 {
		t.Fatalf("water features = %d", len(p.Water))
	}
}

func TestParkSuppressesBuildings(t *testing.T) {
	s := SmallTestSpec(6)
	park := geo.Rect{Min: geo.Pt(100, 100), Max: geo.Pt(350, 350)}
	s.Parks = []RectSpec{{Rect: park}}
	p, err := Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	pg := geo.RectPolygon(park)
	for i, b := range p.Buildings {
		if pg.Contains(b.Footprint.Centroid()) {
			t.Fatalf("building %d sits in the park", i)
		}
	}
}

func TestDocumentRoundTrip(t *testing.T) {
	p, err := Generate(SmallTestSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	doc := p.Document()
	if len(doc.Ways) != len(p.Buildings)+len(p.Water)+len(p.Parks)+len(p.Highways) {
		t.Fatalf("document has %d ways, want %d", len(doc.Ways), len(p.Buildings))
	}
	var buf bytes.Buffer
	if err := osm.Write(&buf, doc); err != nil {
		t.Fatal(err)
	}
	doc2, err := osm.Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	city := osm.ExtractCity("t", doc2, 20)
	// Some buildings may fall below the extraction min-area, but the vast
	// majority must survive the full XML round trip.
	if city.NumBuildings() < len(p.Buildings)*9/10 {
		t.Fatalf("extracted %d buildings from %d generated", city.NumBuildings(), len(p.Buildings))
	}
}

func TestCityFrameMatchesPlan(t *testing.T) {
	p, err := Generate(SmallTestSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	city := p.City()
	if city.NumBuildings() == 0 {
		t.Fatal("no buildings extracted")
	}
	// Each extracted centroid should be within a few meters of some
	// generated building centroid (projection round-trip error only).
	for _, f := range city.Buildings[:min(20, city.NumBuildings())] {
		best := 1e18
		for _, b := range p.Buildings {
			if d := f.Centroid.Dist(b.Footprint.Centroid()); d < best {
				best = d
			}
		}
		if best > 5 {
			t.Fatalf("extracted centroid %v is %.1f m from any generated building", f.Centroid, best)
		}
	}
	// Bounds should roughly match the plan's extent.
	if city.Bounds.Width() > p.Bounds.Width()*1.1 || city.Bounds.Height() > p.Bounds.Height()*1.1 {
		t.Errorf("city bounds %+v much larger than plan %+v", city.Bounds, p.Bounds)
	}
}

func TestPresets(t *testing.T) {
	names := PresetNames()
	if len(names) < 6 {
		t.Fatalf("only %d presets", len(names))
	}
	for _, name := range names {
		s, ok := Preset(name)
		if !ok {
			t.Fatalf("Preset(%q) not found", name)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", name, err)
		}
		if s.Name != name {
			t.Errorf("preset %q has Name %q", name, s.Name)
		}
	}
	if _, ok := Preset("atlantis"); ok {
		t.Error("unknown preset should not resolve")
	}
}

func TestPresetStructure(t *testing.T) {
	dc, _ := Preset("dc")
	if len(dc.Rivers) == 0 {
		t.Error("dc should have a river")
	}
	g, _ := Preset("gridtown")
	if len(g.Rivers) != 0 || len(g.Parks) != 0 {
		t.Error("gridtown should have no gaps")
	}
}

func TestDistrictString(t *testing.T) {
	for d, want := range map[District]string{
		Downtown: "downtown", Residential: "residential",
		Campus: "campus", Empty: "empty",
	} {
		if d.String() != want {
			t.Errorf("String(%d) = %q", d, d.String())
		}
	}
}

func TestSplitRect(t *testing.T) {
	area := func(r geo.Rect) float64 { return r.Width() * r.Height() }
	r := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(10, 20)}
	if got := splitRect(r, 1); len(got) != 1 || got[0] != r {
		t.Errorf("split 1 = %v", got)
	}
	halves := splitRect(r, 2)
	if len(halves) != 2 {
		t.Fatalf("split 2 = %d cells", len(halves))
	}
	if a := area(halves[0]) + area(halves[1]); a != area(r) {
		t.Errorf("split 2 area = %v, want %v", a, area(r))
	}
	quads := splitRect(r, 4)
	if len(quads) != 4 {
		t.Fatalf("split 4 = %d cells", len(quads))
	}
	var total float64
	for _, q := range quads {
		total += area(q)
	}
	if total != area(r) {
		t.Errorf("split 4 area = %v, want %v", total, area(r))
	}
}

func TestItoa(t *testing.T) {
	for n, want := range map[int]string{0: "0", 7: "7", 42: "42", 1234: "1234"} {
		if got := itoa(n); got != want {
			t.Errorf("itoa(%d) = %q", n, got)
		}
	}
}

func TestGeneratePresetSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("preset generation in -short mode")
	}
	for _, name := range PresetNames() {
		s, _ := Preset(name)
		p, err := Generate(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(p.Buildings) < 300 {
			t.Errorf("%s: only %d buildings", name, len(p.Buildings))
		}
	}
}
