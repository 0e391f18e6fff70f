package adversary

import (
	"reflect"
	"testing"

	"citymesh/internal/geo"
	"citymesh/internal/mesh"
	"citymesh/internal/osm"
	"citymesh/internal/sim"
)

func testMesh(n int) *mesh.Mesh {
	city := &osm.City{Name: "adv"}
	for i := 0; i < n; i++ {
		c := geo.Pt(float64(i)*100, 0)
		fp := geo.Polygon{
			c.Add(geo.Pt(-2, -2)), c.Add(geo.Pt(2, -2)),
			c.Add(geo.Pt(2, 2)), c.Add(geo.Pt(-2, 2)),
		}
		city.Buildings = append(city.Buildings, &osm.Feature{
			ID: osm.ID(i + 1), Kind: osm.KindBuilding, Footprint: fp, Centroid: c,
		})
	}
	cfg := mesh.DefaultConfig()
	cfg.Density = 1e-12
	return mesh.Place(city, cfg)
}

func TestParseRoundTripsNames(t *testing.T) {
	for _, name := range Names() {
		b, err := Parse(name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		if b.String() != name {
			t.Errorf("Parse(%q) = %v, round-trips to %q", name, b, b.String())
		}
		if b == sim.BehaviorHonest {
			t.Errorf("Names() must list only misbehaviors, got %q", name)
		}
	}
	for _, off := range []string{"", "honest", "none", " Honest "} {
		if b, err := Parse(off); err != nil || b != sim.BehaviorHonest {
			t.Errorf("Parse(%q) = %v, %v; want honest, nil", off, b, err)
		}
	}
	if _, err := Parse("gremlin"); err == nil {
		t.Error("unknown behavior should not parse")
	}
}

func TestSelectIsSeededAndSized(t *testing.T) {
	m := testMesh(50)
	a1 := Select(m, sim.BehaviorGrayhole, 0.2, 7)
	a2 := Select(m, sim.BehaviorGrayhole, 0.2, 7)
	if !reflect.DeepEqual(a1.Adversary.Behaviors, a2.Adversary.Behaviors) {
		t.Fatal("same seed must select the same APs")
	}
	if got := a1.NumCompromised(); got != 10 {
		t.Errorf("20%% of 50 APs = %d compromised, want 10", got)
	}
	a3 := Select(m, sim.BehaviorGrayhole, 0.2, 8)
	if reflect.DeepEqual(a1.Adversary.Behaviors, a3.Adversary.Behaviors) {
		t.Error("different seeds should (overwhelmingly) differ")
	}
	if Select(m, sim.BehaviorGrayhole, 0, 7).NumCompromised() != 0 {
		t.Error("zero fraction must compromise nothing")
	}
	if Select(m, sim.BehaviorHonest, 0.5, 7).NumCompromised() != 0 {
		t.Error("honest behavior must compromise nothing")
	}
}

func TestApplyComposesWithFailures(t *testing.T) {
	m := testMesh(20)
	var cfg sim.Config
	cfg.FailedSet = mesh.NewNodeSet(20).Add(3)

	a := Select(m, sim.BehaviorBlackhole, 0.25, 1)
	a.Apply(&cfg)
	if cfg.Adversary == nil || cfg.Adversary.NumByzantine() != 5 {
		t.Fatalf("Apply did not install the adversary: %+v", cfg.Adversary)
	}
	if !cfg.FailedSet.Contains(3) {
		t.Error("Apply must not disturb the failure injection")
	}

	// A second Apply merges rather than replaces.
	b := Explicit(sim.BehaviorFlooder, []int{19})
	b.Apply(&cfg)
	if cfg.Adversary.BehaviorOf(19) != sim.BehaviorFlooder {
		t.Error("second Apply lost its behaviors")
	}
	if cfg.Adversary.NumByzantine() < 5 {
		t.Error("second Apply erased the first")
	}

	// Apply must not alias the assignment's own map.
	var cfg2 sim.Config
	a.Apply(&cfg2)
	cfg2.Adversary.Behaviors[999] = sim.BehaviorFlooder
	if a.Adversary.BehaviorOf(999) != sim.BehaviorHonest {
		t.Error("Apply aliased the assignment's behavior map")
	}
}

func TestCombineMergesBehaviorsAndKnobs(t *testing.T) {
	g := Select(testMesh(30), sim.BehaviorGrayhole, 0.1, 3)
	g.Adversary.DropProb = 0.9
	f := Explicit(sim.BehaviorFlooder, []int{29})
	f.Adversary.InjectRate = 7

	c := Combine(g, f)
	if c.Adversary.NumByzantine() != g.NumCompromised()+1 {
		t.Errorf("combined %d Byzantine APs, want %d", c.Adversary.NumByzantine(), g.NumCompromised()+1)
	}
	if c.Adversary.DropProb != 0.9 || c.Adversary.InjectRate != 7 {
		t.Errorf("knobs not merged: %+v", c.Adversary)
	}
	if c.Desc == "" || c.Desc == "no adversary" {
		t.Errorf("description lost: %q", c.Desc)
	}
}

func TestDefaultDefense(t *testing.T) {
	d := DefaultDefense(64)
	if d.MaxTTL != 64 || !d.TamperCheck || d.NeighborRate <= 0 || d.MaxGeocastRadius <= 0 {
		t.Errorf("DefaultDefense(64) = %+v: every layer should be armed", d)
	}
	if !d.Any() {
		t.Error("DefaultDefense must register as enabled")
	}
	var cfg sim.Config
	cfg.Defense = d
	if err := cfg.Validate(); err != nil {
		t.Errorf("default defense fails validation: %v", err)
	}
}
