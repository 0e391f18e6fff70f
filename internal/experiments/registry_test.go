package experiments

import (
	"strings"
	"testing"
)

func TestRegistryNamesUniqueAndNonEmpty(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Registry() {
		name := e.Name()
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
		if e.Name() != name {
			t.Fatalf("Lookup(%q) returned experiment named %q", name, e.Name())
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
	if !strings.Contains(res.Text(), "Header sizes") {
		t.Errorf("Text() missing table header:\n%s", res.Text())
	}
	if !strings.HasPrefix(res.CSV(), "city,") {
		t.Errorf("CSV() missing header row:\n%s", res.CSV())
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
			return res.CSV()
		}
		city, cities := run(RunConfig{City: "boston"}), run(RunConfig{Cities: []string{"boston"}})
		if city != cities {
			t.Errorf("%s: City \"boston\" gave\n%s\nCities [boston] gave\n%s", name, city, cities)
		}
	}
}
