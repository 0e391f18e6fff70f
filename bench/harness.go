package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"citymesh/internal/stats"
)

// A workload is one set of inputs. Its ops are grouped into laps: every lap
// issues the same ops, generated once from the seed, so lap times compare
// directly and every op's outcome can be checked against the first lap.
type workload interface {
	// sampleEvery is n when every n-th op is timed on its own.
	sampleEvery() int
	// build makes the fixture from cold, lazy initialisation included, and
	// keeps it in place of the previous one. st is nil on an untraced pass.
	build(st *steps) error
	// generate makes one lap's inputs from the seed. It may read the fixture.
	generate() error
	// prepare puts the fixture in the state every lap starts from; untimed.
	prepare() error
	// lap issues every op of one lap, from one goroutine, each op when the
	// previous one returned. tr is nil on an untraced lap.
	lap(r *lapRec, tr *tracer)
	// check verifies the books the layers keep, after the last lap.
	check() error
	// layers adds the per-layer metrics of a traced pass to m, from the
	// spans of the timed laps and the costs of the set-up steps.
	layers(m metrics, tr *tracer, st *steps) error
}

// options are the settings of one run of the benchmark.
type options struct {
	seed    int64
	seconds float64
	smoke   bool
}

// size is an op or iteration count, cut to about 1/50 for a smoke run.
func (o options) size(n int) int {
	if !o.smoke {
		return n
	}
	return max(n/50, 8)
}

// grid is the side of the grid of cells a lap's pairs are drawn from; a
// smoke run draws from 2 x 2 cells, 16 pairs.
func (o options) grid(g int) int {
	if o.smoke {
		return 2
	}
	return g
}

// outcome is what one op produced, as far as a user could tell.
type outcome struct {
	hash      uint64  // over every observable field of the result
	delivered bool    // reached the destination, or was answered without a reject
	tx        int     // radio broadcasts the op cost
	simMs     float64 // simulated time from injection to delivery, when delivered
	hdrBytes  int     // encoded header size; 0 where the op makes no packet
}

// lapRec times the ops of a lap and checks their outcomes. The first lap
// keeps every outcome; each later lap must reproduce them.
type lapRec struct {
	record   bool
	outs     []outcome
	every    int
	i        int
	t0       time.Time
	samples  []float64 // ms
	ops      int
	failed   int
	firstErr error
}

func (r *lapRec) startLap() { r.i = 0 }

// begin marks the start of the next op.
func (r *lapRec) begin() {
	if r.i%r.every == 0 {
		r.t0 = time.Now()
	}
}

// end marks the return of the op begun last. An op fails when it returns an
// error the workload does not expect or when its outcome differs from the
// same op's outcome on the first lap.
func (r *lapRec) end(o outcome, err error) {
	if r.i%r.every == 0 {
		r.samples = append(r.samples, float64(time.Since(r.t0))/1e6)
	}
	switch {
	case err != nil:
		r.fail(fmt.Errorf("op %d: %w", r.i, err))
		if r.record {
			r.outs = append(r.outs, outcome{})
		}
	case r.record:
		r.outs = append(r.outs, o)
	case r.i >= len(r.outs) || r.outs[r.i].hash != o.hash:
		r.fail(fmt.Errorf("op %d: outcome differs from the first lap", r.i))
	}
	r.i++
	r.ops++
}

func (r *lapRec) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// digest folds the first lap's outcomes into one value: two passes over the
// same inputs agree on it exactly or the program's behaviour changed.
func (r *lapRec) digest() string {
	h := newHasher()
	for _, o := range r.outs {
		h = h.int(int(o.hash))
	}
	return fmt.Sprintf("%016x", uint64(h))
}

// hasher builds an outcome hash from a result's fields (FNV-1a).
type hasher uint64

func newHasher() hasher { return 14695981039346656037 }

func (h hasher) int(v int) hasher {
	x := uint64(v)
	for i := 0; i < 8; i++ {
		h = (h ^ hasher(x&0xff)) * 1099511628211
		x >>= 8
	}
	return h
}

func (h hasher) float(v float64) hasher { return h.int(int(math.Float64bits(v))) }

func (h hasher) bool(v bool) hasher {
	if v {
		return h.int(1)
	}
	return h.int(0)
}

// steps records the cost of each step of a set-up built step by step.
type steps struct {
	by map[string]*stepCost
}

// stepCost holds one sample per build.
type stepCost struct {
	ms, allocs, mb []float64
}

func newSteps() *steps { return &steps{by: map[string]*stepCost{}} }

// do runs one set-up step. On an untraced pass (nil receiver) it only runs
// it; on a traced pass it records the step's time, allocations and bytes.
func (s *steps) do(name string, fn func()) {
	if s == nil {
		fn()
		return
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	c := s.by[name]
	if c == nil {
		c = &stepCost{}
		s.by[name] = c
	}
	c.ms = append(c.ms, float64(d)/1e6)
	c.allocs = append(c.allocs, float64(m1.Mallocs-m0.Mallocs))
	c.mb = append(c.mb, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
}

// median values of one step over the builds; zeros for a step never run.
func (s *steps) cost(name string) (ms, allocs, mb float64) {
	c := s.by[name]
	if c == nil {
		return 0, 0, 0
	}
	return stats.Median(c.ms), stats.Median(c.allocs), stats.Median(c.mb)
}

// passResult is one pass of one workload, as written to the result file.
type passResult struct {
	Workload  string  `json:"workload"`
	Traced    bool    `json:"traced"`
	Digest    string  `json:"digest"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	OpsPerLap int     `json:"ops_per_lap"`
	Laps      int     `json:"timed_laps"`
	Samples   int     `json:"op_time_samples"`
	Setups    int     `json:"setups"`
	TimedS    float64 `json:"timed_phase_s"`
	Metrics   metrics `json:"metrics"`
	// Violation is the first correctness violation, empty when none.
	Violation string `json:"violation,omitempty"`
}

// heapAlloc is the live heap. It collects twice: what a sync.Pool held at
// the first collection is only freed by the second.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// runPass runs one pass of a workload: set-up from cold several times, one
// recorded lap that also warms pools and caches, then timed laps until
// o.seconds have passed. A traced pass alternates traced and untraced timed
// laps, so the tracing overhead is the ratio of two medians of one run.
func runPass(name string, w workload, o options, traced bool) (*passResult, *tracer, error) {
	var st *steps
	var tr *tracer
	if traced {
		st = newSteps()
		tr = newTracer()
	}
	base := heapAlloc()

	minSetups, maxSetups, setupBudget := 5, 40, 2.0
	if o.smoke {
		minSetups, setupBudget = 2, 0
	}
	var setups []float64
	for spent := 0.0; len(setups) < minSetups || (spent < setupBudget && len(setups) < maxSetups); {
		runtime.GC()
		t0 := time.Now()
		if err := w.build(st); err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		d := time.Since(t0).Seconds()
		setups = append(setups, d)
		spent += d
	}
	heapMB := (float64(heapAlloc()) - float64(base)) / (1 << 20)

	if err := w.generate(); err != nil {
		return nil, nil, fmt.Errorf("%s: generate: %w", name, err)
	}
	// runLap runs one lap and returns its wall time and what it allocated.
	// Op times are kept from untraced laps only.
	rec := &lapRec{record: true, every: w.sampleEvery()}
	var m0, m1 runtime.MemStats
	runLap := func(t *tracer) (seconds float64, mallocs, bytes uint64, err error) {
		if err := w.prepare(); err != nil {
			return 0, 0, 0, fmt.Errorf("%s: prepare: %w", name, err)
		}
		samples := len(rec.samples)
		rec.startLap()
		runtime.GC()
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		w.lap(rec, t)
		seconds = time.Since(t0).Seconds()
		runtime.ReadMemStats(&m1)
		if t != nil {
			rec.samples = rec.samples[:samples]
		}
		return seconds, m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc, nil
	}
	if _, _, _, err := runLap(nil); err != nil {
		return nil, nil, err
	}
	rec.record = false
	opsPerLap := rec.ops
	if opsPerLap == 0 {
		return nil, nil, fmt.Errorf("%s: a lap has no ops", name)
	}
	if traced {
		// The traced lap issues each op layer by layer; its outcomes must
		// equal those of the composite calls recorded above. Its spans are
		// cold, so they go to a tracer of their own.
		if _, _, _, err := runLap(newTracer()); err != nil {
			return nil, nil, err
		}
	}
	rec.samples = rec.samples[:0]

	var lapS, tracedLapS []float64
	var mallocs, bytes uint64
	start := time.Now()
	for k := 0; ; k++ {
		if traced && k%2 == 0 {
			seconds, _, _, err := runLap(tr)
			if err != nil {
				return nil, nil, err
			}
			tracedLapS = append(tracedLapS, seconds)
			continue
		}
		seconds, m, b, err := runLap(nil)
		if err != nil {
			return nil, nil, err
		}
		lapS = append(lapS, seconds)
		mallocs += m
		bytes += b
		if time.Since(start).Seconds() >= o.seconds {
			break
		}
	}

	res := &passResult{
		Workload: name, Traced: traced, Digest: rec.digest(),
		Attempted: rec.ops, Failed: rec.failed, OpsPerLap: opsPerLap,
		Laps: len(lapS) + len(tracedLapS), Samples: len(rec.samples), Setups: len(setups),
		TimedS: time.Since(start).Seconds(), Metrics: metrics{},
	}
	if rec.firstErr != nil {
		res.Violation = rec.firstErr.Error()
	} else if err := w.check(); err != nil {
		res.Violation = err.Error()
	}

	medLap := stats.Median(lapS)
	if !traced {
		ops := float64(len(lapS) * opsPerLap)
		delivered := 0
		for _, out := range rec.outs {
			if out.delivered {
				delivered++
			}
		}
		m := res.Metrics
		m["setup_s"] = stats.Median(setups)
		m["ops_per_s"] = float64(opsPerLap) / medLap
		m["op_ms_p50"] = stats.Percentile(rec.samples, 50)
		m["op_ms_p99"] = stats.Percentile(rec.samples, 99)
		m["allocs_per_op"] = float64(mallocs) / ops
		m["alloc_kb_per_op"] = float64(bytes) / 1024 / ops
		m["heap_after_setup_mb"] = heapMB
		m["delivered_frac"] = float64(delivered) / float64(len(rec.outs))
		return res, nil, nil
	}

	for _, d := range perLayer {
		res.Metrics[d.Name] = 0
	}
	deliveryMetrics(res.Metrics, rec.outs)
	res.Metrics["bench.trace_overhead_frac"] = 1 - medLap/stats.Median(tracedLapS)
	// Time inside the layers is the self time of every span that is not the
	// benchmark's own, less the clock reads each span includes; the rest of
	// an untraced lap is the benchmark's loop.
	var inside float64
	empty := emptySpanNs()
	for i, tot := range tr.totals {
		if !strings.HasPrefix(spanNames[i], "bench.") {
			inside += float64(tot.Self) - empty*float64(tot.Count)
		}
	}
	insidePerLap := inside / 1e9 / float64(len(tracedLapS))
	res.Metrics["bench.outside_layers_frac"] = math.Max(0, 1-insidePerLap/medLap)
	if err := w.layers(res.Metrics, tr, st); err != nil {
		return nil, nil, fmt.Errorf("%s: per-layer measurements: %w", name, err)
	}
	return res, tr, nil
}

// deliveryMetrics derives the delivery-cost statistics from the first lap's
// outcomes. They are left at 0 for a workload whose ops use no radio.
func deliveryMetrics(m metrics, outs []outcome) {
	var tx, delivered int
	var simMs, hdr []float64
	for _, o := range outs {
		tx += o.tx
		if o.hdrBytes > 0 {
			hdr = append(hdr, float64(o.hdrBytes))
		}
		if o.delivered {
			delivered++
			if o.simMs > 0 {
				simMs = append(simMs, o.simMs)
			}
		}
	}
	if tx > 0 && delivered > 0 {
		m["radio.tx_per_delivery"] = float64(tx) / float64(delivered)
	}
	if len(simMs) > 0 {
		m["sim.delivery_ms_p50"] = stats.Percentile(simMs, 50)
	}
	if len(hdr) > 0 {
		m["packet.header_bytes_p90"] = stats.Percentile(hdr, 90)
	}
}

// timeCalls runs fn(i) for i in [0, n) and returns the mean nanoseconds and
// heap allocations per call, leaving the first calls out as warm-up.
func timeCalls(n int, fn func(i int)) (ns, allocs float64) {
	warm := min(n/8, 16)
	for i := 0; i < warm; i++ {
		fn(i)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := warm; i < n; i++ {
		fn(i)
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	timed := float64(n - warm)
	return float64(d) / timed, float64(m1.Mallocs-m0.Mallocs) / timed
}
