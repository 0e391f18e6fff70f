package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestRegistryNamesUniqueAndNonEmpty(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Registry() {
		name := e.Name
		if name == "" {
			t.Fatal("registered experiment with empty name")
		}
		if seen[name] {
			t.Fatalf("duplicate experiment name %q", name)
		}
		seen[name] = true
	}
	if len(seen) < 10 {
		t.Fatalf("registry has only %d experiments; expected the full evaluation", len(seen))
	}
}

func TestLookupAndNames(t *testing.T) {
	names := Names()
	if len(names) != len(Registry()) {
		t.Fatalf("Names() returned %d entries for %d experiments", len(names), len(Registry()))
	}
	for _, name := range names {
		e, ok := Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) failed for a listed name", name)
		}
		if e.Name != name {
			t.Fatalf("Lookup(%q) returned experiment named %q", name, e.Name)
		}
	}
	if _, ok := Lookup("no-such-experiment"); ok {
		t.Fatal("Lookup accepted an unknown name")
	}
}

func TestRunByNameProducesTextAndCSV(t *testing.T) {
	res, err := RunByName("headers", RunConfig{
		City: "gridtown", Scale: 0.4, Seed: 1, Pairs: 20, Parallelism: 1,
	})
	if err != nil {
		t.Fatalf("RunByName(headers): %v", err)
	}
	if !strings.Contains(res.Text, "Header sizes") {
		t.Errorf("Text missing table header:\n%s", res.Text)
	}
	if !strings.HasPrefix(res.CSV, "city,") {
		t.Errorf("CSV missing header row:\n%s", res.CSV)
	}
}

func TestRunByNameUnknown(t *testing.T) {
	if _, err := RunByName("bogus", RunConfig{}); err == nil {
		t.Fatal("expected error for unknown experiment name")
	}
}

func TestRunByNameUnknownCityPropagates(t *testing.T) {
	if _, err := RunByName("geocast", RunConfig{City: "nope", Parallelism: 1}); err == nil {
		t.Fatal("expected unknown-city error to propagate through the registry")
	}
}

// TestRegistryRejectsBadScale: every registered experiment refuses a scale
// outside [0, 1] up front, naming the value, instead of silently running
// the full-size city.
func TestRegistryRejectsBadScale(t *testing.T) {
	for _, e := range Registry() {
		for _, scale := range []float64{-1, 2, math.NaN()} {
			_, err := e.Run(RunConfig{City: "gridtown", Scale: scale, Pairs: 1, Parallelism: 1})
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("scale %v", scale)) {
				t.Errorf("%s at scale %v: err = %v, want a scale error", e.Name, scale, err)
			}
		}
	}
}

// The entry points check the scale too, in the preset loader: a negative
// scale no longer falls back to an experiment's default size.
func TestEntryPointsRejectBadScale(t *testing.T) {
	runs := map[string]func() error{
		"Overload": func() error { _, err := Overload(OverloadConfig{Scale: -1}); return err },
		"DataMule": func() error { _, err := DataMule(DataMuleConfig{Scale: -1}); return err },
		"FloodFrontStudy": func() error {
			_, err := FloodFrontStudy(FloodFrontStudyConfig{Scale: -1})
			return err
		},
		"HeaderSizes": func() error { _, err := HeaderSizes("gridtown", 2, 1, 1, 1); return err },
		"Figure6": func() error {
			_, err := Figure6(Figure6Config{Cities: []string{"gridtown"}, Scale: math.NaN()})
			return err
		},
	}
	for name, run := range runs {
		if err := run(); err == nil || !strings.Contains(err.Error(), "scale") {
			t.Errorf("%s: err = %v, want a scale error", name, err)
		}
	}
}

func TestExplicitBostonRunsBoston(t *testing.T) {
	// An explicit City runs that city, also in the experiments with a
	// default city of their own and when it is "boston", the default of
	// most others. Cities[0] names the city it runs, so the two spellings
	// must give the same result.
	for _, name := range []string{"selfhealing", "overload", "datamule", "byzantine"} {
		run := func(cfg RunConfig) string {
			cfg.Scale, cfg.Seed, cfg.Pairs, cfg.Parallelism = 0.1, 1, 2, 1
			res, err := RunByName(name, cfg)
			if err != nil {
				// At this size no river splits boston, and the datamule
				// study says so.
				return err.Error()
			}
			return res.CSV
		}
		city, cities := run(RunConfig{City: "boston"}), run(RunConfig{Cities: []string{"boston"}})
		if city != cities {
			t.Errorf("%s: City \"boston\" gave\n%s\nCities [boston] gave\n%s", name, city, cities)
		}
	}
}
