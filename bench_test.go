package citymesh_test

// This file is the benchmark harness mandated by DESIGN.md. It iterates
// experiments.Registry() instead of hand-enumerating entry points, so a new
// experiment becomes benchmarkable by registering itself. Two extra
// benchmark families measure the parallel sweep engine: the same sweep at
// Parallelism=1 and Parallelism=GOMAXPROCS (output is byte-identical by
// construction; only wall-clock differs).
//
//	go test -bench=. -benchmem        # every experiment, reduced scale
//	go test -bench=Parallel -benchmem # just the speedup pair
//
// The speedup is only meaningful relative to the core count it was taken
// on. The end-to-end and per-layer benchmark lives in bench/.

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"citymesh/internal/experiments"
)

// benchRunConfig is the reduced-scale setting every registry benchmark
// runs at, so the full sweep completes in minutes. The cmd/ tools run the
// paper's full size.
func benchRunConfig() experiments.RunConfig {
	return experiments.RunConfig{
		City:   "gridtown",
		Cities: []string{"gridtown"},
		Scale:  0.4,
		Seed:   1,
		Pairs:  10,
	}
}

// BenchmarkExperiments runs every registered experiment as a
// sub-benchmark: go test -bench=Experiments/resilience, etc.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.Registry() {
		e := e
		b.Run(e.Name, func(b *testing.B) {
			cfg := benchRunConfig()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchParallelisms is the serial/parallel pair the speedup benchmarks
// compare.
func benchParallelisms() []int {
	ps := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		ps = append(ps, n)
	}
	return ps
}

// BenchmarkResilienceParallel measures the tentpole claim: the resilience
// sweep at Parallelism=1 versus all cores, identical output.
func BenchmarkResilienceParallel(b *testing.B) {
	for _, par := range benchParallelisms() {
		par := par
		b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
			cfg := benchRunConfig()
			cfg.Parallelism = par
			cfg.Pairs = 20
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunByName("resilience", cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure6Parallel holds the headline table to the same
// measurement.
func BenchmarkFigure6Parallel(b *testing.B) {
	for _, par := range benchParallelisms() {
		par := par
		b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
			cfg := benchRunConfig()
			cfg.Parallelism = par
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunByName("figure6", cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure5Render covers the one paper figure that lives outside
// the registry (pure SVG rendering, no sweep).
func BenchmarkFigure5Render(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Figure5("boston", 0.5, io.Discard, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
