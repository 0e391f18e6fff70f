package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden/ from the experiments under test")

// goldenConfig is the small configuration every registered experiment is
// pinned at. datamule and floodfront need a city with water, so they run dc.
func goldenConfig(name string) RunConfig {
	cfg := RunConfig{City: "gridtown", Scale: 0.3, Pairs: 6, Seed: 1, FederationCities: 5}
	if name == "datamule" || name == "floodfront" {
		cfg.City = "dc"
	}
	return cfg
}

// TestGolden pins the rendered Text and CSV of every registered experiment
// to testdata/golden/<name>.{txt,csv}, so a deterministic but wrong change
// to any layer an experiment runs shows as a diff. Each experiment runs
// serially and on 8 workers against the same golden, which is the sweeps'
// promise that output does not depend on parallelism. Regenerate (after a
// deliberate behaviour change only) with
//
//	go test ./internal/experiments -run TestGolden -update
func TestGolden(t *testing.T) {
	for _, e := range Registry() {
		t.Run(e.Name, func(t *testing.T) {
			for _, par := range []int{1, 8} {
				cfg := goldenConfig(e.Name)
				cfg.Parallelism = par
				res, err := e.Run(cfg)
				if err != nil {
					t.Fatalf("par=%d: %v", par, err)
				}
				for _, f := range []struct{ ext, got string }{{"txt", res.Text}, {"csv", res.CSV}} {
					path := filepath.Join("testdata", "golden", e.Name+"."+f.ext)
					if *update && par == 1 {
						if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
							t.Fatal(err)
						}
						if err := os.WriteFile(path, []byte(f.got), 0o644); err != nil {
							t.Fatal(err)
						}
						continue
					}
					want, err := os.ReadFile(path)
					if err != nil {
						t.Fatalf("%v (record it with -update)", err)
					}
					if f.got != string(want) {
						t.Errorf("par=%d: %s differs from the golden\n--- got ---\n%s--- want ---\n%s", par, path, f.got, want)
					}
				}
			}
		})
	}
}
