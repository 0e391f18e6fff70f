// Command bench is CityMesh's benchmark: five named workloads, each run
// once untraced for the end-to-end metrics and once traced for the metrics
// of single layers. It drives every layer through its public functions and
// times them from outside; see README.md for the glossary.
//
//	bash bench/run.sh                                  every workload, both passes
//	bash bench/run.sh --workload city-send --trace 0   one pass, as the driver runs it
//	bash bench/run.sh -smoke                           everything at 1/50 size
//	bash bench/run.sh -compare a.json b.json           two result files against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// workloads, in the order they run. The names are final: later changes
// cite them.
var workloadNames = []string{"city-send", "metro-send", "disaster-ladder", "live-frames", "session-flashcrowd"}

// The side g of the grid of cells each workload draws its pairs from; a lap
// is about g^4 ops. More pairs make a lap's statistics steadier from seed to
// seed; fewer let a ten-second run hold more laps to take the median of. A
// metro send takes 10 ms, so its lap is the longest, about 6 s.
const (
	citySendGrid   = 6 // 1296 sends
	metroSendGrid  = 5 // 625 sends
	ladderGrid     = 6 // about 1290 sends
	liveFramesGrid = 6 // about 1250 waves
)

func newWorkload(name string, o options) workload {
	switch name {
	case "city-send":
		return newSendWorkload(o, "gridtown", citySendGrid)
	case "metro-send":
		return newSendWorkload(o, "metro", metroSendGrid)
	case "disaster-ladder":
		return newLadderWorkload(o, ladderGrid)
	case "live-frames":
		return newFramesWorkload(o, liveFramesGrid)
	case "session-flashcrowd":
		return newSessionWorkload(o)
	}
	return nil
}

// outDir receives the result file and the trace files; run.sh starts the
// benchmark at the root of the checkout.
var outDir = filepath.Join("bench", "out")

// runHeader says where and how a result was measured.
type runHeader struct {
	Nproc      int     `json:"nproc"`
	Gomaxprocs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitRev     string  `json:"git_rev"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds_per_pass"`
	Smoke      bool    `json:"smoke"`
	Started    string  `json:"started"`
}

// resultFile is what a run writes and -compare reads.
type resultFile struct {
	Header runHeader `json:"header"`
	// UntracedWallS is the wall time of all untraced passes, set-up included.
	UntracedWallS float64       `json:"untraced_wall_s"`
	Passes        []*passResult `json:"passes"`
}

func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown" // not a git checkout, or no git
	}
	return strings.TrimSpace(string(out))
}

func main() { os.Exit(run(os.Args[1:])) }

// complain reports err and returns the exit code.
func complain(code int, err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return code
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name       = fs.String("workload", "", "run only this workload (default: all five)")
		seed       = fs.Int64("seed", 1, "seed of every generated input")
		seconds    = fs.Float64("seconds", 10, "length of each pass's timed phase")
		trace      = fs.String("trace", "both", "0: untraced pass, 1: traced pass, both")
		smoke      = fs.Bool("smoke", false, "every workload and pass at 1/50 size, for tests")
		compare    = fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the benchmark to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile of the benchmark to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	}
	names := workloadNames
	if *name != "" {
		if newWorkload(*name, options{}) == nil {
			fmt.Fprintf(os.Stderr, "bench: no workload %q (have %s)\n", *name, strings.Join(workloadNames, ", "))
			return 2
		}
		names = []string{*name}
	}
	var passes []bool // traced?
	switch *trace {
	case "0":
		passes = []bool{false}
	case "1":
		passes = []bool{true}
	case "both":
		passes = []bool{false, true}
	default:
		fmt.Fprintln(os.Stderr, "bench: -trace is 0, 1 or both")
		return 2
	}
	if g, n := runtime.GOMAXPROCS(0), runtime.NumCPU(); g > n {
		fmt.Fprintf(os.Stderr, "bench: GOMAXPROCS %d exceeds the %d processors of this host\n", g, n)
		return 2
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return complain(2, err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return complain(2, err)
		}
		defer pprof.StopCPUProfile()
	}

	o := options{seed: *seed, seconds: *seconds, smoke: *smoke}
	if o.smoke {
		o.seconds = 0 // one timed lap of each kind
	}
	res := resultFile{Header: runHeader{
		Nproc: runtime.NumCPU(), Gomaxprocs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitRev: gitRev(), Seed: o.seed, Seconds: o.seconds, Smoke: o.smoke,
		Started: time.Now().UTC().Format(time.RFC3339),
	}}
	h := res.Header
	fmt.Printf("citymesh bench: nproc %d, GOMAXPROCS %d, %s, rev %s, seed %d, %.0f s per pass, closed loop, one client\n",
		h.Nproc, h.Gomaxprocs, h.GoVersion, h.GitRev, h.Seed, h.Seconds)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return complain(1, err)
	}

	status := 0
	for _, wn := range names {
		var untraced *passResult
		for _, traced := range passes {
			t0 := time.Now()
			// A pass gets a workload of its own, so nothing carries over.
			pr, tr, err := runPass(wn, newWorkload(wn, o), o, traced)
			if err != nil {
				return complain(1, err)
			}
			if !traced {
				untraced = pr
				res.UntracedWallS += time.Since(t0).Seconds()
			} else if err := tr.write(filepath.Join(outDir, wn+".trace.json"), wn, o.seed); err != nil {
				return complain(1, err)
			}
			if traced && untraced != nil && pr.Digest != untraced.Digest && pr.Violation == "" {
				pr.Violation = fmt.Sprintf("traced digest %s differs from untraced %s", pr.Digest, untraced.Digest)
			}
			if pr.Violation != "" {
				fmt.Fprintf(os.Stderr, "bench: %s: VIOLATION: %s\n", wn, pr.Violation)
				status = 1
			}
			res.Passes = append(res.Passes, pr)
			printPass(pr)
		}
	}
	fmt.Printf("untraced passes took %.1f s of wall time, set-up included\n", res.UntracedWallS)

	if *memprofile != "" {
		runtime.GC()
		f, err := os.Create(*memprofile)
		if err == nil {
			err = pprof.WriteHeapProfile(f)
			f.Close()
		}
		if err != nil {
			return complain(2, err)
		}
	}
	b, err := json.MarshalIndent(res, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(outDir, "result.json"), append(b, '\n'), 0o644)
	}
	if err != nil {
		return complain(1, err)
	}
	printDriverLine(res.Passes)
	return status
}

// printPass prints one pass's metrics by name, with units.
func printPass(pr *passResult) {
	kind, defs := "untraced", endToEnd
	if pr.Traced {
		kind, defs = "traced", perLayer
	}
	fmt.Printf("\n%s, %s pass: digest %s, %d ops attempted, %d failed, %d ops per lap, %d timed laps in %.1f s, %d op times, %d set-ups\n",
		pr.Workload, kind, pr.Digest, pr.Attempted, pr.Failed, pr.OpsPerLap, pr.Laps, pr.TimedS, pr.Samples, pr.Setups)
	for _, d := range defs {
		v, ok := pr.Metrics[d.Name]
		if !ok || (pr.Traced && v == 0) {
			continue // a layer this workload does not reach
		}
		note := ""
		if d.Bound > 0 {
			note = fmt.Sprintf("  (%s is better, bound %.0f%%)", d.Better, d.Bound*100)
		}
		fmt.Printf("  %-36s %14.6g %-6s%s\n", d.Name, v, d.Unit, note)
	}
}

// printDriverLine prints the last line of standard output: one JSON object
// over every pass that ran. A run of one workload and one pass is what the
// driver reads.
func printDriverLine(passes []*passResult) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := metricDefs()
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, pr := range passes {
		line.Correct = line.Correct && pr.Violation == ""
		line.Attempted += pr.Attempted
		line.Failed += pr.Failed
		for name, v := range pr.Metrics {
			key := name
			if len(passes) > 2 {
				key = pr.Workload + "/" + name
			}
			line.Metrics[key] = value{v, defs[name].Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return
	}
	fmt.Printf("\n%s\n", b)
}

// compareFiles prints, per workload and metric, how far b is from a against
// the metric's bound, and returns 1 when an exact metric or a digest
// differs or an end-to-end metric of b is worse than a's by more than its
// bound.
func compareFiles(pathA, pathB string) int {
	load := func(path string) (*resultFile, error) {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(raw, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &rf, nil
	}
	a, err := load(pathA)
	if err != nil {
		return complain(2, err)
	}
	b, err := load(pathB)
	if err != nil {
		return complain(2, err)
	}
	if a.Header.Seed != b.Header.Seed || a.Header.Smoke != b.Header.Smoke {
		fmt.Fprintln(os.Stderr, "bench: the two files were measured with different seeds or sizes")
		return 2
	}
	defs := metricDefs()
	bad := 0
	for _, pa := range a.Passes {
		var pb *passResult
		for _, p := range b.Passes {
			if p.Workload == pa.Workload && p.Traced == pa.Traced {
				pb = p
			}
		}
		if pb == nil {
			continue
		}
		fmt.Printf("\n%s, traced=%v\n", pa.Workload, pa.Traced)
		if pa.Digest != pb.Digest {
			fmt.Printf("  digest %s != %s  DIFFERS\n", pa.Digest, pb.Digest)
			bad++
		}
		names := make([]string, 0, len(pa.Metrics))
		for name := range pa.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			va, vb := pa.Metrics[name], pb.Metrics[name]
			d := defs[name]
			if va == 0 && vb == 0 {
				continue
			}
			rel := 0.0
			if va != 0 {
				rel = (vb - va) / va
			}
			worse := rel
			if d.Better == higher {
				worse = -rel
			}
			verdict := ""
			switch {
			case d.Exact && va != vb:
				verdict = "DIFFERS (must repeat exactly)"
				bad++
			case d.Exact:
				verdict = "equal"
			case d.Bound > 0 && worse > d.Bound:
				verdict = fmt.Sprintf("WORSE than the %.0f%% bound", d.Bound*100)
				bad++
			case d.Bound > 0:
				verdict = fmt.Sprintf("within the %.0f%% bound", d.Bound*100)
			}
			fmt.Printf("  %-36s %14.6g %14.6g %+8.2f%%  %s\n", name, va, vb, rel*100, verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("\n%d metrics differ or are beyond their bounds\n", bad)
		return 1
	}
	fmt.Println("\nthe two sets agree")
	return 0
}
