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
	// Scale shrinks preset extents (0 < Scale <= 1); 0 means full size.
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

// withDefaults fills the zero fields shared across experiments.
func (c RunConfig) withDefaults() RunConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
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
// document of the same data.
type Result interface {
	Text() string
	CSV() string
}

// textCSV is the concrete Result: experiments render both forms eagerly,
// so a Result is plain data safe to hold, diff, or ship across goroutines.
type textCSV struct {
	text string
	csv  string
}

func (r textCSV) Text() string { return r.text }
func (r textCSV) CSV() string  { return r.csv }

// Experiment is one registered evaluation: a stable name for CLI/bench
// lookup and a Run that maps the shared RunConfig onto the experiment's
// own parameters.
type Experiment interface {
	Name() string
	Run(cfg RunConfig) (Result, error)
}

// expFunc adapts a closure to Experiment.
type expFunc struct {
	name string
	run  func(cfg RunConfig) (Result, error)
}

func (e expFunc) Name() string                      { return e.name }
func (e expFunc) Run(cfg RunConfig) (Result, error) { return e.run(cfg) }

// Lookup returns the registered experiment with the given name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.Name() == name {
			return e, true
		}
	}
	return nil, false
}

// Names lists the registered experiment names, sorted.
func Names() []string {
	var out []string
	for _, e := range Registry() {
		out = append(out, e.Name())
	}
	sort.Strings(out)
	return out
}

// Registry lists every experiment behind the unified API. cmd/citymesh-sim
// (-experiment/-list) and the benchmark harness iterate this instead of
// hand-enumerating the per-file entry points.
func Registry() []Experiment {
	return []Experiment{
		expFunc{"measurement", func(cfg RunConfig) (Result, error) {
			cfg = cfg.withDefaults()
			res, err := MeasurementStudy(cfg.Seed, cfg.Parallelism)
			if err != nil {
				return nil, err
			}
			return textCSV{
				text: res.Table1Text() + res.Figure1Text(),
				csv:  res.CSV(),
			}, nil
		}},
		expFunc{"figure6", func(cfg RunConfig) (Result, error) {
			cfg = cfg.withDefaults()
			f6 := Figure6Config{
				Cities: cfg.Cities, Seed: cfg.Seed, Scale: cfg.Scale,
				Parallelism: cfg.Parallelism,
			}
			if cfg.Pairs > 0 {
				f6.DeliverPairs = cfg.Pairs
			}
			rows, err := Figure6(f6)
			if err != nil {
				return nil, err
			}
			return textCSV{text: Figure6Text(rows), csv: Figure6CSV(rows)}, nil
		}},
		expFunc{"resilience", func(cfg RunConfig) (Result, error) {
			cfg = cfg.withDefaults()
			rc := ResilienceConfig{
				Cities: cfg.Cities, Seed: cfg.Seed, Scale: cfg.Scale,
				Pairs: cfg.Pairs, Parallelism: cfg.Parallelism,
			}
			rows, err := Resilience(rc)
			if err != nil {
				return nil, err
			}
			return textCSV{text: ResilienceText(rows), csv: ResilienceCSV(rows)}, nil
		}},
		expFunc{"selfhealing", func(cfg RunConfig) (Result, error) {
			cfg = cfg.withDefaults()
			sc := DefaultSelfHealingConfig()
			sc.City = cfg.city(sc.City)
			sc.Seed = cfg.Seed
			sc.Scale = cfg.Scale
			sc.Parallelism = cfg.Parallelism
			if cfg.Pairs > 0 {
				sc.Pairs = cfg.Pairs
			}
			res, err := SelfHealing(sc)
			if err != nil {
				return nil, err
			}
			return textCSV{text: SelfHealingText(res), csv: SelfHealingCSV(res)}, nil
		}},
		expFunc{"headers", func(cfg RunConfig) (Result, error) {
			cfg = cfg.withDefaults()
			res, err := HeaderSizes(cfg.city("boston"), cfg.Scale, cfg.Seed, cfg.Pairs, cfg.Parallelism)
			if err != nil {
				return nil, err
			}
			return textCSV{text: res.Text(), csv: res.CSV()}, nil
		}},
		expFunc{"conduit-width", func(cfg RunConfig) (Result, error) {
			cfg = cfg.withDefaults()
			rows, err := ConduitWidthSweep(cfg.city("boston"), cfg.Scale, cfg.Seed, nil, cfg.Pairs, cfg.Parallelism)
			if err != nil {
				return nil, err
			}
			return textCSV{
				text: AblationText("A1: conduit width sweep", rows),
				csv:  AblationCSV(rows),
			}, nil
		}},
		expFunc{"weight-exponent", func(cfg RunConfig) (Result, error) {
			cfg = cfg.withDefaults()
			rows, err := WeightExponentSweep(cfg.city("boston"), cfg.Scale, cfg.Seed, nil, cfg.Pairs, cfg.Parallelism)
			if err != nil {
				return nil, err
			}
			return textCSV{
				text: AblationText("A2: edge-weight exponent sweep", rows),
				csv:  AblationCSV(rows),
			}, nil
		}},
		expFunc{"baselines", func(cfg RunConfig) (Result, error) {
			cfg = cfg.withDefaults()
			rows, err := BaselineComparison(cfg.city("boston"), cfg.Scale, cfg.Seed, cfg.Pairs, cfg.Parallelism)
			if err != nil {
				return nil, err
			}
			return textCSV{
				text: AblationText("A3: policy baselines", rows),
				csv:  AblationCSV(rows),
			}, nil
		}},
		expFunc{"failure-injection", func(cfg RunConfig) (Result, error) {
			cfg = cfg.withDefaults()
			rows, err := FailureInjection(cfg.city("boston"), cfg.Scale, cfg.Seed, nil, cfg.Pairs, cfg.Parallelism)
			if err != nil {
				return nil, err
			}
			return textCSV{
				text: AblationText("A4: random AP failure", rows),
				csv:  AblationCSV(rows),
			}, nil
		}},
		expFunc{"security", func(cfg RunConfig) (Result, error) {
			cfg = cfg.withDefaults()
			rows, err := MultipathUnderAttack(cfg.city("boston"), cfg.Scale, cfg.Seed, nil, nil, cfg.Pairs, cfg.Parallelism)
			if err != nil {
				return nil, err
			}
			return textCSV{text: SecurityText(rows), csv: SecurityCSV(rows)}, nil
		}},
		expFunc{"radio", func(cfg RunConfig) (Result, error) {
			cfg = cfg.withDefaults()
			rows, err := RadioModelSweep(cfg.city("boston"), cfg.Scale, cfg.Seed, cfg.Pairs, cfg.Parallelism)
			if err != nil {
				return nil, err
			}
			return textCSV{text: RadioText(rows), csv: RadioCSV(rows)}, nil
		}},
		expFunc{"parity", func(cfg RunConfig) (Result, error) {
			results, err := Parity()
			if err != nil {
				return nil, err
			}
			return textCSV{text: ParityText(results), csv: ParityCSV(results)}, nil
		}},
		expFunc{"overload", func(cfg RunConfig) (Result, error) {
			cfg = cfg.withDefaults()
			oc := DefaultOverloadConfig()
			oc.City = cfg.city(oc.City)
			oc.Seed = cfg.Seed
			if cfg.Scale > 0 {
				oc.Scale = cfg.Scale
			}
			oc.Parallelism = cfg.Parallelism
			if cfg.Pairs > 0 {
				// The shared -pairs knob sizes the user population here.
				oc.Users = cfg.Pairs
			}
			rows, err := Overload(oc)
			if err != nil {
				return nil, err
			}
			return textCSV{text: OverloadText(rows), csv: OverloadCSV(rows)}, nil
		}},
		expFunc{"datamule", func(cfg RunConfig) (Result, error) {
			cfg = cfg.withDefaults()
			// An empty City selects DataMule's own default ("dc"), a
			// river-split city.
			dc := DataMuleConfig{
				City: cfg.city(""), Scale: cfg.Scale, Seed: cfg.Seed,
				Pairs: cfg.Pairs, Parallelism: cfg.Parallelism,
			}
			rows, err := DataMule(dc)
			if err != nil {
				return nil, err
			}
			return textCSV{text: DataMuleText(rows), csv: DataMuleCSV(rows)}, nil
		}},
		expFunc{"floodfront", func(cfg RunConfig) (Result, error) {
			cfg = cfg.withDefaults()
			fc := FloodFrontStudyConfig{
				City: cfg.city("boston"), Scale: cfg.Scale, Seed: cfg.Seed,
				Pairs: cfg.Pairs, Parallelism: cfg.Parallelism,
			}
			rows, err := FloodFrontStudy(fc)
			if err != nil {
				return nil, err
			}
			return textCSV{text: FloodFrontText(rows), csv: FloodFrontCSV(rows)}, nil
		}},
		expFunc{"byzantine", func(cfg RunConfig) (Result, error) {
			cfg = cfg.withDefaults()
			bc := DefaultByzantineConfig()
			bc.City = cfg.city(bc.City)
			bc.Seed = cfg.Seed
			bc.Scale = cfg.Scale
			bc.Parallelism = cfg.Parallelism
			if cfg.Pairs > 0 {
				bc.Pairs = cfg.Pairs
			}
			res, err := Byzantine(bc)
			if err != nil {
				return nil, err
			}
			return textCSV{text: ByzantineText(res), csv: ByzantineCSV(res)}, nil
		}},
		expFunc{"federation", func(cfg RunConfig) (Result, error) {
			cfg = cfg.withDefaults()
			fc := DefaultFederationConfig()
			fc.Seed = cfg.Seed
			fc.Parallelism = cfg.Parallelism
			if cfg.Pairs > 0 {
				fc.Pairs = cfg.Pairs
			}
			if cfg.FederationTopology != "" {
				topo, err := citygen.ParseTopology(cfg.FederationTopology)
				if err != nil {
					return nil, err
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
			if err != nil {
				return nil, err
			}
			return textCSV{text: FederationText(rows), csv: FederationCSV(rows)}, nil
		}},
		expFunc{"geocast", func(cfg RunConfig) (Result, error) {
			cfg = cfg.withDefaults()
			rows, err := GeocastSweep(cfg.city("boston"), cfg.Scale, cfg.Seed, nil, cfg.Pairs, cfg.Parallelism)
			if err != nil {
				return nil, err
			}
			return textCSV{text: GeocastText(rows), csv: GeocastCSV(rows)}, nil
		}},
	}
}

// RunByName looks up and runs one experiment; unknown names list the
// registry in the error.
func RunByName(name string, cfg RunConfig) (Result, error) {
	e, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	return e.Run(cfg)
}
