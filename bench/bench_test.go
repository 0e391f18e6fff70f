package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload, untraced and traced, at 1/50 size with all
// correctness checks on.
func TestSmoke(t *testing.T) {
	outDir = t.TempDir()
	start := time.Now()
	if code := run([]string{"-smoke"}); code != 0 {
		t.Fatalf("bench -smoke exited with %d", code)
	}
	// The budget is 15 s (it takes 5); the slack is for -race and busy hosts.
	if d := time.Since(start); d > time.Minute {
		t.Errorf("smoke run took %v", d)
	}
	raw, err := os.ReadFile(filepath.Join(outDir, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rf resultFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		t.Fatal(err)
	}
	if len(rf.Passes) != 2*len(workloadNames) {
		t.Fatalf("%d passes, want %d", len(rf.Passes), 2*len(workloadNames))
	}
	h := rf.Header
	if h.Nproc == 0 || h.Gomaxprocs == 0 || h.GoVersion == "" || h.GitRev == "" || h.Seed != 1 {
		t.Errorf("incomplete run header: %+v", h)
	}
	for i, pr := range rf.Passes {
		if pr.Violation != "" || pr.Failed != 0 || pr.Attempted == 0 || pr.OpsPerLap == 0 {
			t.Errorf("%s traced=%v: %+v", pr.Workload, pr.Traced, pr)
		}
		defs := endToEnd
		if pr.Traced {
			defs = perLayer
			if prev := rf.Passes[i-1]; prev.Workload != pr.Workload || prev.Digest != pr.Digest {
				t.Errorf("%s: traced digest %s, untraced %s of %s", pr.Workload, pr.Digest, prev.Digest, prev.Workload)
			}
			if _, err := os.Stat(filepath.Join(outDir, pr.Workload+".trace.json")); err != nil {
				t.Error(err)
			}
		}
		for _, d := range defs {
			v, ok := pr.Metrics[d.Name]
			if !ok {
				t.Errorf("%s traced=%v: no %s", pr.Workload, pr.Traced, d.Name)
			}
			if !pr.Traced && v <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v", pr.Workload, d.Name, v)
			}
		}
	}
}

// TestSmokeRepeats checks that a pass at a fixed seed repeats its digest and
// every exact metric, which is what -compare holds two result sets to.
func TestSmokeRepeats(t *testing.T) {
	o := options{seed: 7, smoke: true}
	for _, name := range workloadNames {
		a, _, err := runPass(name, newWorkload(name, o), o, true)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := runPass(name, newWorkload(name, o), o, true)
		if err != nil {
			t.Fatal(err)
		}
		if a.Digest != b.Digest {
			t.Errorf("%s: digest %s then %s", name, a.Digest, b.Digest)
		}
		for _, d := range perLayer {
			if d.Exact && a.Metrics[d.Name] != b.Metrics[d.Name] {
				t.Errorf("%s: %s = %v then %v", name, d.Name, a.Metrics[d.Name], b.Metrics[d.Name])
			}
		}
	}
}

func TestTracerSelfTime(t *testing.T) {
	var clock int64
	tr := &tracer{now: func() int64 { return clock }}
	at := func(ns int64) { clock = ns }

	// parent 0..100 with children 10..30 and 50..90, the second holding a
	// grandchild 60..70.
	at(0)
	tr.begin(spSend)
	at(10)
	tr.begin(spShortestPath)
	at(30)
	tr.end()
	at(50)
	tr.begin(spEngineRun)
	at(60)
	tr.begin(spHandle)
	at(70)
	handled := tr.end()
	at(90)
	tr.end()
	at(100)
	tr.end()
	tr.rename(handled, spHandleFetch)

	want := map[int]spanTotal{
		spSend:         {Count: 1, Total: 100, Self: 40},
		spShortestPath: {Count: 1, Total: 20, Self: 20},
		spEngineRun:    {Count: 1, Total: 40, Self: 30},
		spHandle:       {},
		spHandleFetch:  {Count: 1, Total: 10, Self: 10},
	}
	for name, w := range want {
		if got := tr.totals[name]; got != w {
			t.Errorf("%s: %+v, want %+v", spanNames[name], got, w)
		}
	}
	var self int64
	for _, s := range tr.spans {
		self += s.Self
	}
	if self != 100 {
		t.Errorf("self times sum to %d, want the root's 100", self)
	}
	if s := tr.spans[3]; s.Name != spanNames[spHandleFetch] || s.Parent != 2 || s.Start != 60 || s.End != 70 {
		t.Errorf("grandchild span %+v", s)
	}
	if got := tr.meanUs(spSend); got != 0.1 {
		t.Errorf("meanUs = %v, want 0.1", got)
	}
}

func TestLapRecChecksOutcomes(t *testing.T) {
	r := &lapRec{record: true, every: 2}
	for i := 0; i < 4; i++ {
		r.begin()
		r.end(outcome{hash: uint64(i)}, nil)
	}
	if len(r.samples) != 2 || len(r.outs) != 4 || r.failed != 0 {
		t.Fatalf("first lap: %d samples, %d outcomes, %d failed", len(r.samples), len(r.outs), r.failed)
	}
	first := r.digest()
	r.record = false
	r.startLap()
	for i := 0; i < 5; i++ {
		r.begin()
		h := uint64(i)
		if i == 2 {
			h = 99 // differs from the first lap
		}
		var err error
		if i == 3 {
			err = errors.New("boom")
		}
		r.end(outcome{hash: h}, err) // op 4 does not exist on the first lap
	}
	if r.failed != 3 || r.ops != 9 {
		t.Errorf("%d failed of %d ops, want 3 of 9", r.failed, r.ops)
	}
	if r.digest() != first {
		t.Error("a later lap changed the digest")
	}
	if r.firstErr == nil || !strings.Contains(r.firstErr.Error(), "op 2") {
		t.Errorf("first error %v, want op 2", r.firstErr)
	}
}

func TestDeliveryMetrics(t *testing.T) {
	var outs []outcome
	for i := 1; i <= 11; i++ {
		outs = append(outs, outcome{delivered: i%2 == 1, tx: 10, simMs: float64(i), hdrBytes: 20 + i})
	}
	m := metrics{}
	deliveryMetrics(m, outs)
	// 6 of 11 delivered (simMs 1,3,..,11), 110 broadcasts, headers 21..31.
	if got := m["radio.tx_per_delivery"]; got != 110.0/6 {
		t.Errorf("tx_per_delivery = %v", got)
	}
	if got := m["sim.delivery_ms_p50"]; got != 6 {
		t.Errorf("delivery_ms_p50 = %v, want 6", got)
	}
	if got := m["packet.header_bytes_p90"]; got != 30 {
		t.Errorf("header_bytes_p90 = %v, want 30", got)
	}
	m = metrics{}
	deliveryMetrics(m, []outcome{{delivered: true}})
	if len(m) != 0 {
		t.Errorf("ops without a radio reported %v", m)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, opsPerS, delivered float64, digest string) string {
		rf := resultFile{Header: runHeader{Seed: 1}, Passes: []*passResult{{
			Workload: "city-send", Digest: digest,
			Metrics: metrics{"ops_per_s": opsPerS, "delivered_frac": delivered},
		}}}
		b, err := json.Marshal(rf)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 1000, 0.95, "d1")
	for _, c := range []struct {
		name string
		path string
		want int
	}{
		{"within the bound", write("b.json", 950, 0.95, "d1"), 0},
		{"better by any amount", write("c.json", 2000, 0.95, "d1"), 0},
		{"worse than the bound", write("d.json", 700, 0.95, "d1"), 1},
		{"exact metric differs", write("e.json", 1000, 0.951, "d1"), 1},
		{"digest differs", write("f.json", 1000, 0.95, "d2"), 1},
	} {
		if got := compareFiles(base, c.path); got != c.want {
			t.Errorf("%s: exit %d, want %d", c.name, got, c.want)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric tables equal.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Command   []string
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v", doc.Paths)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" {
			t.Errorf("workload %d is %+v, want %s", i, w, workloadNames[i])
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the table", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the table %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	if n := len(metricDefs()); n != len(endToEnd)+len(perLayer) {
		t.Errorf("%d distinct metric names, want %d", n, len(endToEnd)+len(perLayer))
	}
}

// benchFiles lists the files and directories of the benchmark as paths from
// the repository root, leaving out what bench/.gitignore names on purpose:
// the results and a binary built in place.
func benchFiles(t *testing.T) []string {
	var files []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if path == "." {
			return nil
		}
		if d.IsDir() && path == "out" {
			return filepath.SkipDir
		}
		if path == "bench" {
			return nil
		}
		files = append(files, filepath.ToSlash(filepath.Join("bench", path)))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestNotIgnored guards against the trap that swallowed
// internal/citygen/federation.go: an unanchored pattern of the root
// .gitignore, meant for a built binary, matching a source file or directory
// of the same name anywhere in the tree.
func TestNotIgnored(t *testing.T) {
	files := benchFiles(t)
	raw, err := os.ReadFile(filepath.Join("..", ".gitignore"))
	if err != nil {
		t.Skip("no root .gitignore:", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		pattern := strings.TrimSpace(line)
		if pattern == "" || strings.HasPrefix(pattern, "#") || strings.HasPrefix(pattern, "/") {
			continue // anchored patterns match one path of the root only
		}
		pattern = strings.TrimSuffix(pattern, "/")
		for _, f := range files {
			for _, part := range strings.Split(strings.TrimPrefix(f, "bench/"), "/") {
				if ok, _ := filepath.Match(pattern, part); ok {
					t.Errorf("%s matches the root .gitignore pattern %q", f, pattern)
				}
			}
		}
	}

	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("no git:", err)
	}
	if err := exec.Command("git", "-C", "..", "rev-parse", "--git-dir").Run(); err != nil {
		t.Skip("not a git checkout:", err)
	}
	args := append([]string{"-C", "..", "check-ignore", "--"}, files...)
	out, err := exec.Command("git", args...).Output()
	// check-ignore exits with 1 when no path is ignored.
	var exit *exec.ExitError
	if errors.As(err, &exit) && exit.ExitCode() == 1 && len(out) == 0 {
		return
	}
	if err != nil {
		t.Fatalf("git check-ignore: %v", err)
	}
	t.Errorf("git ignores sources of the benchmark:\n%s", out)
}
