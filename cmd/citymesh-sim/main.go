// Command citymesh-sim reproduces the paper's Figure 6 — reachability,
// deliverability and transmission overhead for each (synthetic) city — and,
// with fault injection enabled, the disaster-scenario resilience sweep:
// delivery rate versus failure fraction for plain conduit routing and for
// the SendReliable escalation ladder (retry → widen → multipath → flood).
// The -heal flag runs the self-healing evaluation instead: the ladder with
// per-sender route-health memory against the plain ladder, plus the
// partition-aware store-and-heal phase across a recovery.
//
// Usage:
//
//	citymesh-sim [-cities boston,dc] [-reach-pairs 1000] [-deliver-pairs 50]
//	             [-seed 1] [-scale 1.0] [-csv] [-par 8]
//	citymesh-sim -fail-mode=uniform -fail-frac=0.1,0.3,0.5
//	citymesh-sim -cities=boston -fail-mode=flood -fail-frac=0.3
//	citymesh-sim -heal -fail-mode=disk -fail-frac=0.3 -heal-decay=30 -recover-at=60
//	citymesh-sim -fail-mode=uniform -fail-frac=0 -adversary=grayhole -adv-frac=0.2 -defend
//	citymesh-sim -experiment byzantine -cities gridtown -scale 0.5 -csv
//	citymesh-sim -list
//	citymesh-sim -experiment geocast -cities gridtown -scale 0.5 -csv
//	citymesh-sim -experiment federation -federation-cities 25 -federation-topology ring -link-fail-frac 0,0.3
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"citymesh/internal/adversary"
	"citymesh/internal/experiments"
	"citymesh/internal/faults"
	"citymesh/internal/health"
	"citymesh/internal/sim"
	"citymesh/internal/svgrender"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command behind a testable seam: flags parse from args,
// output goes to the writers, and the exit code is returned instead of
// calling os.Exit.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("citymesh-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cities       = fs.String("cities", "", "comma-separated preset cities (default: all)")
		reachPairs   = fs.Int("reach-pairs", 1000, "random building pairs tested for reachability")
		deliverPairs = fs.Int("deliver-pairs", 50, "reachable pairs run through the event simulation")
		seed         = fs.Int64("seed", 1, "experiment seed")
		scale        = fs.Float64("scale", 1.0, "shrink city extents by this factor (0,1]")
		csv          = fs.Bool("csv", false, "emit CSV instead of a table")
		svg          = fs.String("svg", "", "also render the Figure 6 bar chart to this SVG file")

		failMode = fs.String("fail-mode", "", "fault injector: "+strings.Join(faults.Modes(), ", ")+
			" (enables the resilience sweep)")
		failFrac = fs.String("fail-frac", "0,0.1,0.2,0.3,0.4,0.5",
			"comma-separated failure fractions to sweep (the -heal run uses the first value)")
		pairs = fs.Int("pairs", 30, "building pairs per resilience cell")

		advBehavior = fs.String("adversary", "",
			"compromise a fraction of APs with this misbehavior during the resilience sweep: "+
				strings.Join(adversary.Names(), ", "))
		advFrac = fs.Float64("adv-frac", 0.2, "compromised-AP fraction for -adversary")
		defend  = fs.Bool("defend", false,
			"arm honest receivers with the default defense stack (max-TTL, tamper, rate, geocast checks)")

		heal = fs.Bool("heal", false,
			"run the self-healing evaluation: ladder+route-health memory vs plain ladder, then store-and-heal")
		healDecay = fs.Float64("heal-decay", 0,
			"suspicion decay e-folding time in sim seconds (0 = default)")
		recoverAt = fs.Float64("recover-at", 60,
			"sim instant at which injected failures heal during the -heal store-and-heal phase (0 disables)")

		fedCities = fs.Int("federation-cities", 0,
			"cap the federation experiment's size sweep at this many member cities (0 = sweep to 100)")
		fedTopo = fs.String("federation-topology", "",
			"federation link graph shape for -experiment federation: line, ring, hub, mesh")
		linkFail = fs.String("link-fail-frac", "",
			"comma-separated long-haul link failure fractions for -experiment federation")

		par = fs.Int("par", 0,
			"sweep worker parallelism (0 = GOMAXPROCS, 1 = serial); output is byte-identical either way")
		list       = fs.Bool("list", false, "list the registered experiments and exit")
		experiment = fs.String("experiment", "",
			"run one registered experiment by name (see -list) instead of the default Figure 6 table")

		txDelay = fs.Float64("tx-delay", 0, "override the simulator per-transmission latency in seconds")
		jitter  = fs.Float64("jitter-max", 0, "override the simulator max forwarding jitter in seconds")
		loss    = fs.Float64("loss", 0, "override the simulator per-reception loss probability [0,1]")
		maxEv   = fs.Int("max-events", 0, "override the simulator event cap (runaway guard)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, name := range experiments.Names() {
			fmt.Fprintln(stdout, name)
		}
		return 0
	}

	simCfg, ok := simOverride(fs, *txDelay, *jitter, *loss, *maxEv, stderr)
	if !ok {
		return 2
	}

	if *experiment != "" {
		return runRegistry(fs, *experiment, *cities, *scale, *seed, *pairs, *par,
			*fedCities, *fedTopo, *linkFail, *csv, stdout, stderr)
	}
	if *fedCities != 0 || *fedTopo != "" || *linkFail != "" {
		fmt.Fprintln(stderr, "citymesh-sim: -federation-cities/-federation-topology/-link-fail-frac "+
			"apply to -experiment federation")
		return 2
	}
	if *heal {
		return runSelfHealing(fs, *cities, *failMode, *failFrac, *pairs, *seed,
			*scale, *healDecay, *recoverAt, *par, *csv, stdout, stderr)
	}
	if *failMode != "" && faults.Mode(*failMode) != faults.ModeNone {
		return runResilience(*cities, *failMode, *failFrac, *pairs, *seed, *scale,
			*par, simCfg, *csv, *advBehavior, *advFrac, *defend, stdout, stderr)
	}
	if *advBehavior != "" {
		fmt.Fprintln(stderr, "citymesh-sim: -adversary rides on the resilience sweep; add -fail-mode "+
			"(-fail-mode=uniform -fail-frac=0 gives an adversary-only run) or use -experiment byzantine")
		return 2
	}

	cfg := experiments.Figure6Config{
		ReachPairs:   *reachPairs,
		DeliverPairs: *deliverPairs,
		Seed:         *seed,
		Scale:        *scale,
		Parallelism:  *par,
		Sim:          simCfg,
	}
	if *cities != "" {
		cfg.Cities = strings.Split(*cities, ",")
	}
	rows, err := experiments.Figure6(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "citymesh-sim:", err)
		return 1
	}
	if *csv {
		fmt.Fprint(stdout, experiments.Figure6CSV(rows))
	} else {
		fmt.Fprint(stdout, experiments.Figure6Text(rows))
	}
	if *svg != "" {
		groups := make([]svgrender.BarGroup, 0, len(rows))
		for _, r := range rows {
			groups = append(groups, svgrender.BarGroup{
				Label:  r.City,
				Values: []float64{r.Reachability, r.Deliverability},
			})
		}
		f, err := os.Create(*svg)
		if err != nil {
			fmt.Fprintln(stderr, "citymesh-sim:", err)
			return 1
		}
		defer f.Close()
		if err := svgrender.RenderGroupedBarChart(f,
			"Figure 6: reachability and deliverability per city",
			[]string{"reachability", "deliverability"}, groups, 1); err != nil {
			fmt.Fprintln(stderr, "citymesh-sim:", err)
			return 1
		}
		fmt.Fprintln(stdout, "wrote", f.Name())
	}
	return 0
}

// simOverride builds a simulator-config override from the -tx-delay,
// -jitter-max, -loss and -max-events flags. It returns nil (use each
// experiment's default) unless at least one of them was set explicitly, so
// a zero flag value never clobbers a non-zero default. The override is
// validated here so a bad flag fails fast with the sentinel error instead
// of surfacing as an invalid simulation deep inside a sweep.
func simOverride(fs *flag.FlagSet, txDelay, jitter, loss float64, maxEv int, stderr io.Writer) (*sim.Config, bool) {
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if !set["tx-delay"] && !set["jitter-max"] && !set["loss"] && !set["max-events"] {
		return nil, true
	}
	cfg := sim.DefaultConfig()
	if set["tx-delay"] {
		cfg.TxDelay = txDelay
	}
	if set["jitter-max"] {
		cfg.JitterMax = jitter
	}
	if set["loss"] {
		cfg.LossProb = loss
	}
	if set["max-events"] {
		cfg.MaxEvents = maxEv
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(stderr, "citymesh-sim:", err)
		return nil, false
	}
	return &cfg, true
}

// runRegistry executes one experiment from the unified registry. Only
// flags the user set explicitly override the experiment's own defaults.
func runRegistry(fs *flag.FlagSet, name, cities string, scale float64, seed int64, pairs, par, fedCities int, fedTopo, linkFail string, csv bool, stdout, stderr io.Writer) int {
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	cfg := experiments.RunConfig{
		Seed:               seed,
		Scale:              scale,
		Parallelism:        par,
		FederationCities:   fedCities,
		FederationTopology: fedTopo,
	}
	if cities != "" {
		cfg.Cities = strings.Split(cities, ",")
		cfg.City = cfg.Cities[0]
	}
	if set["pairs"] {
		cfg.Pairs = pairs
	}
	if linkFail != "" {
		fracs, ok := parseFracs("-link-fail-frac", linkFail, stderr)
		if !ok {
			return 2
		}
		cfg.LinkFailFracs = fracs
	}
	res, err := experiments.RunByName(name, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "citymesh-sim:", err)
		return 1
	}
	if csv {
		fmt.Fprint(stdout, res.CSV)
	} else {
		fmt.Fprint(stdout, res.Text)
	}
	return 0
}

// parseFracs parses a comma-separated failure-fraction list.
func parseFracs(flagName, fracsCSV string, stderr io.Writer) ([]float64, bool) {
	var fracs []float64
	for _, s := range strings.Split(fracsCSV, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil || f < 0 || f > 1 {
			fmt.Fprintf(stderr, "citymesh-sim: bad %s value %q\n", flagName, s)
			return nil, false
		}
		fracs = append(fracs, f)
	}
	return fracs, true
}

// runResilience executes the fault-injection sweep, which reports plain
// and ladder delivery side by side.
func runResilience(cities, mode, fracsCSV string, pairs int, seed int64, scale float64, par int, simCfg *sim.Config, csv bool, advBehavior string, advFrac float64, defend bool, stdout, stderr io.Writer) int {
	fracs, ok := parseFracs("-fail-frac", fracsCSV, stderr)
	if !ok {
		return 2
	}
	cfg := experiments.ResilienceConfig{
		Mode:        faults.Mode(mode),
		Fracs:       fracs,
		Pairs:       pairs,
		Seed:        seed,
		Scale:       scale,
		Parallelism: par,
		Sim:         simCfg,
		Adversary:   advBehavior,
		AdvFrac:     advFrac,
		Defend:      defend,
	}
	if cities != "" {
		cfg.Cities = strings.Split(cities, ",")
	}
	rows, err := experiments.Resilience(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "citymesh-sim:", err)
		return 1
	}
	if advBehavior != "" && !csv {
		def := "undefended"
		if defend {
			def = "defended"
		}
		fmt.Fprintf(stdout, "adversary: %s at %.0f%% of APs, %s receivers\n",
			advBehavior, 100*advFrac, def)
	}
	if csv {
		fmt.Fprint(stdout, experiments.ResilienceCSV(rows))
	} else {
		fmt.Fprint(stdout, experiments.ResilienceText(rows))
	}
	return 0
}

// runSelfHealing executes the PR 3 evaluation: ladder-with-memory vs plain
// ladder, then partition-aware store-and-heal across a recovery.
func runSelfHealing(fs *flag.FlagSet, cities, mode, fracsCSV string, pairs int, seed int64, scale, healDecay, recoverAt float64, par int, csv bool, stdout, stderr io.Writer) int {
	cfg := experiments.DefaultSelfHealingConfig()
	if cities != "" {
		cfg.City = strings.Split(cities, ",")[0]
	}
	if mode != "" {
		cfg.Mode = faults.Mode(mode)
	}
	// The sweep flag's default list starts at 0; only an explicit
	// -fail-frac overrides the self-healing default fraction.
	fracSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "fail-frac" {
			fracSet = true
		}
	})
	if fracSet {
		fracs, ok := parseFracs("-fail-frac", fracsCSV, stderr)
		if !ok {
			return 2
		}
		if len(fracs) > 0 {
			cfg.Frac = fracs[0]
		}
	}
	cfg.Pairs = pairs
	cfg.Seed = seed
	cfg.Scale = scale
	cfg.RecoverAt = recoverAt
	cfg.Parallelism = par
	if healDecay > 0 {
		hc := health.DefaultConfig()
		hc.DecayTau = healDecay
		cfg.Health = hc
	}
	res, err := experiments.SelfHealing(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "citymesh-sim:", err)
		return 1
	}
	if csv {
		fmt.Fprint(stdout, experiments.SelfHealingCSV(res))
	} else {
		fmt.Fprint(stdout, experiments.SelfHealingText(res))
	}
	return 0
}
