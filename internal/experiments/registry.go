package experiments

import (
	"fmt"
	"sort"

	"citymesh/internal/citygen"
)

// RunConfig is the one knob set shared by every registered experiment.
// Zero values select each experiment's own defaults, so `RunConfig{}` runs
// the paper's evaluation setting.
type RunConfig struct {
	// City is the preset for single-city experiments; empty selects each
	// experiment's own default ("boston" for most).
	City string
	// Cities lists presets for multi-city experiments (figure6,
	// resilience); empty means all presets. A single-city experiment runs
	// the first of them, ahead of City.
	Cities []string
	// Scale shrinks preset extents, within [0, 1]; 0 selects each
	// experiment's default (full size for most). Run rejects any other
	// value, NaN included.
	Scale float64
	// Seed drives all sampling and simulation randomness (default 1).
	Seed int64
	// Pairs overrides the experiment's sample size where one applies.
	Pairs int
	// Parallelism is the runner worker count: 0 or negative uses
	// GOMAXPROCS, 1 forces serial. Results are byte-identical either way.
	Parallelism int
	// FederationCities caps the federation experiment's size sweep: the
	// default sizes up to and including this count (0 = the full default
	// sweep to 100 cities).
	FederationCities int
	// FederationTopology names the federation link graph shape (line,
	// ring, hub, mesh); empty selects the experiment default.
	FederationTopology string
	// LinkFailFracs overrides the federation experiment's link-failure
	// arms (nil = the experiment default).
	LinkFailFracs []float64
}

// withDefaults validates the fields shared across experiments and fills
// their zero values.
func (c RunConfig) withDefaults() (RunConfig, error) {
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c, checkScale(c.Scale)
}

// city is the preset a single-city experiment runs: the first of Cities,
// else City, else def, the experiment's own default.
func (c RunConfig) city(def string) string {
	switch {
	case len(c.Cities) > 0:
		return c.Cities[0]
	case c.City != "":
		return c.City
	}
	return def
}

// Result is what every experiment returns: a rendered text table and a CSV
// document of the same data. Experiments render both forms eagerly, so a
// Result is plain data safe to hold, diff, or ship across goroutines.
type Result struct {
	Text, CSV string
}

// Experiment is one registered evaluation: a stable name for CLI/bench
// lookup and a Run that maps the shared RunConfig onto the experiment's
// own parameters.
type Experiment struct {
	Name string
	Run  func(cfg RunConfig) (Result, error)
}

// Lookup returns the registered experiment with the given name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Names lists the registered experiment names, sorted.
func Names() []string {
	var out []string
	for _, e := range registry {
		out = append(out, e.Name)
	}
	sort.Strings(out)
	return out
}

// Registry lists every experiment behind the unified API. cmd/citymesh-sim
// (-experiment/-list) and the benchmark harness iterate this instead of
// hand-enumerating the per-file entry points. Each Run validates the
// RunConfig and fills its shared defaults before the experiment sees it.
func Registry() []Experiment {
	out := make([]Experiment, len(registry))
	for i, e := range registry {
		out[i] = Experiment{Name: e.Name, Run: func(cfg RunConfig) (Result, error) {
			cfg, err := cfg.withDefaults()
			if err != nil {
				return Result{}, err
			}
			return e.Run(cfg)
		}}
	}
	return out
}

// render is the Result of an experiment's output v, or its error.
func render[T any](v T, err error, text, csv func(T) string) (Result, error) {
	if err != nil {
		return Result{}, err
	}
	return Result{Text: text(v), CSV: csv(v)}, nil
}

// ablationText titles AblationText for render.
func ablationText(title string) func([]AblationRow) string {
	return func(rows []AblationRow) string { return AblationText(title, rows) }
}

// registry is the experiment table behind Registry; each Run gets a
// RunConfig that withDefaults has already checked and filled.
var registry = []Experiment{
	{"measurement", func(cfg RunConfig) (Result, error) {
		res, err := MeasurementStudy(cfg.Seed, cfg.Parallelism)
		return render(res, err, func(r *MeasurementStudyResult) string {
			return r.Table1Text() + r.Figure1Text()
		}, (*MeasurementStudyResult).CSV)
	}},
	{"figure6", func(cfg RunConfig) (Result, error) {
		f6 := Figure6Config{
			Cities: cfg.Cities, Seed: cfg.Seed, Scale: cfg.Scale,
			DeliverPairs: cfg.Pairs, Parallelism: cfg.Parallelism,
		}
		rows, err := Figure6(f6)
		return render(rows, err, Figure6Text, Figure6CSV)
	}},
	{"resilience", func(cfg RunConfig) (Result, error) {
		rows, err := Resilience(ResilienceConfig{
			Cities: cfg.Cities, Seed: cfg.Seed, Scale: cfg.Scale,
			Pairs: cfg.Pairs, Parallelism: cfg.Parallelism,
		})
		return render(rows, err, ResilienceText, ResilienceCSV)
	}},
	{"selfhealing", func(cfg RunConfig) (Result, error) {
		sc := DefaultSelfHealingConfig()
		sc.City = cfg.city(sc.City)
		sc.Seed = cfg.Seed
		sc.Scale = cfg.Scale
		sc.Parallelism = cfg.Parallelism
		if cfg.Pairs > 0 {
			sc.Pairs = cfg.Pairs
		}
		res, err := SelfHealing(sc)
		return render(res, err, SelfHealingText, SelfHealingCSV)
	}},
	{"headers", func(cfg RunConfig) (Result, error) {
		res, err := HeaderSizes(cfg.city("boston"), cfg.Scale, cfg.Seed, cfg.Pairs, cfg.Parallelism)
		return render(res, err, HeaderSizeResult.Text, HeaderSizeResult.CSV)
	}},
	{"conduit-width", func(cfg RunConfig) (Result, error) {
		rows, err := ConduitWidthSweep(cfg.city("boston"), cfg.Scale, cfg.Seed, nil, cfg.Pairs, cfg.Parallelism)
		return render(rows, err, ablationText("A1: conduit width sweep"), AblationCSV)
	}},
	{"weight-exponent", func(cfg RunConfig) (Result, error) {
		rows, err := WeightExponentSweep(cfg.city("boston"), cfg.Scale, cfg.Seed, nil, cfg.Pairs, cfg.Parallelism)
		return render(rows, err, ablationText("A2: edge-weight exponent sweep"), AblationCSV)
	}},
	{"baselines", func(cfg RunConfig) (Result, error) {
		rows, err := BaselineComparison(cfg.city("boston"), cfg.Scale, cfg.Seed, cfg.Pairs, cfg.Parallelism)
		return render(rows, err, ablationText("A3: policy baselines"), AblationCSV)
	}},
	{"failure-injection", func(cfg RunConfig) (Result, error) {
		rows, err := FailureInjection(cfg.city("boston"), cfg.Scale, cfg.Seed, nil, cfg.Pairs, cfg.Parallelism)
		return render(rows, err, ablationText("A4: random AP failure"), AblationCSV)
	}},
	{"security", func(cfg RunConfig) (Result, error) {
		rows, err := MultipathUnderAttack(cfg.city("boston"), cfg.Scale, cfg.Seed, nil, nil, cfg.Pairs, cfg.Parallelism)
		return render(rows, err, SecurityText, SecurityCSV)
	}},
	{"radio", func(cfg RunConfig) (Result, error) {
		rows, err := RadioModelSweep(cfg.city("boston"), cfg.Scale, cfg.Seed, cfg.Pairs, cfg.Parallelism)
		return render(rows, err, RadioText, RadioCSV)
	}},
	{"parity", func(cfg RunConfig) (Result, error) {
		results, err := Parity()
		return render(results, err, ParityText, ParityCSV)
	}},
	{"overload", func(cfg RunConfig) (Result, error) {
		oc := DefaultOverloadConfig()
		oc.City = cfg.city(oc.City)
		oc.Seed = cfg.Seed
		// Overload's own default fills a zero Scale.
		oc.Scale = cfg.Scale
		oc.Parallelism = cfg.Parallelism
		if cfg.Pairs > 0 {
			// The shared -pairs knob sizes the user population here.
			oc.Users = cfg.Pairs
		}
		rows, err := Overload(oc)
		return render(rows, err, OverloadText, OverloadCSV)
	}},
	{"datamule", func(cfg RunConfig) (Result, error) {
		// An empty City selects DataMule's own default ("dc"), a
		// river-split city.
		rows, err := DataMule(DataMuleConfig{
			City: cfg.city(""), Scale: cfg.Scale, Seed: cfg.Seed,
			Pairs: cfg.Pairs, Parallelism: cfg.Parallelism,
		})
		return render(rows, err, DataMuleText, DataMuleCSV)
	}},
	{"floodfront", func(cfg RunConfig) (Result, error) {
		rows, err := FloodFrontStudy(FloodFrontStudyConfig{
			City: cfg.city("boston"), Scale: cfg.Scale, Seed: cfg.Seed,
			Pairs: cfg.Pairs, Parallelism: cfg.Parallelism,
		})
		return render(rows, err, FloodFrontText, FloodFrontCSV)
	}},
	{"byzantine", func(cfg RunConfig) (Result, error) {
		bc := DefaultByzantineConfig()
		bc.City = cfg.city(bc.City)
		bc.Seed = cfg.Seed
		bc.Scale = cfg.Scale
		bc.Parallelism = cfg.Parallelism
		if cfg.Pairs > 0 {
			bc.Pairs = cfg.Pairs
		}
		res, err := Byzantine(bc)
		return render(res, err, ByzantineText, ByzantineCSV)
	}},
	{"federation", func(cfg RunConfig) (Result, error) {
		fc := DefaultFederationConfig()
		fc.Seed = cfg.Seed
		fc.Parallelism = cfg.Parallelism
		if cfg.Pairs > 0 {
			fc.Pairs = cfg.Pairs
		}
		if cfg.FederationTopology != "" {
			topo, err := citygen.ParseTopology(cfg.FederationTopology)
			if err != nil {
				return Result{}, err
			}
			fc.Topology = topo
		}
		if cfg.FederationCities > 0 {
			fc.Sizes = federationSizesUpTo(cfg.FederationCities)
		}
		if len(cfg.LinkFailFracs) > 0 {
			fc.LinkFailFracs = cfg.LinkFailFracs
		}
		rows, err := FederationSweep(fc)
		return render(rows, err, FederationText, FederationCSV)
	}},
	{"geocast", func(cfg RunConfig) (Result, error) {
		rows, err := GeocastSweep(cfg.city("boston"), cfg.Scale, cfg.Seed, nil, cfg.Pairs, cfg.Parallelism)
		return render(rows, err, GeocastText, GeocastCSV)
	}},
}

// RunByName looks up and runs one experiment; unknown names list the
// registry in the error.
func RunByName(name string, cfg RunConfig) (Result, error) {
	e, ok := Lookup(name)
	if !ok {
		return Result{}, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	return e.Run(cfg)
}
