package experiments

import (
	"fmt"
	"math"

	"citymesh/internal/citygen"
	"citymesh/internal/core"
	"citymesh/internal/runner"
	"citymesh/internal/stats"
)

// The sweep scaffold every experiment shares: the preset loader, the
// empty-safe summaries, the delivery tally of a pair sweep, and the
// index-ordered first-N candidate scan.

// checkScale rejects a scale outside [0, 1]; 0 selects the experiment's
// default size.
func checkScale(scale float64) error {
	if math.IsNaN(scale) || scale < 0 || scale > 1 {
		return fmt.Errorf("experiments: scale %v outside [0, 1]", scale)
	}
	return nil
}

// presetSpec returns the named preset shrunk by scale (0 or 1 = full size).
func presetSpec(city string, scale float64) (citygen.Spec, error) {
	if err := checkScale(scale); err != nil {
		return citygen.Spec{}, err
	}
	spec, ok := citygen.Preset(city)
	if !ok {
		return spec, fmt.Errorf("experiments: unknown city %q", city)
	}
	if scale > 0 && scale < 1 {
		spec = scaleSpec(spec, scale)
	}
	return spec, nil
}

// loadCity builds the network of the named preset at scale under cfg.
func loadCity(city string, scale float64, cfg core.Config) (*core.Network, error) {
	spec, err := presetSpec(city, scale)
	if err != nil {
		return nil, err
	}
	n, err := core.FromSpec(spec, cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", city, err)
	}
	return n, nil
}

// scaleSpec shrinks a city spec's extent and features proportionally. The
// feature slices are copied first: the input spec (often a shared preset)
// must not be mutated.
func scaleSpec(s citygen.Spec, k float64) citygen.Spec {
	s.Width *= k
	s.Height *= k
	s.Rivers = append([]citygen.RiverSpec(nil), s.Rivers...)
	s.Parks = append([]citygen.RectSpec(nil), s.Parks...)
	s.Highways = append([]citygen.RectSpec(nil), s.Highways...)
	scaleRect := func(r *citygen.RectSpec) {
		r.Rect.Min = r.Rect.Min.Scale(k)
		r.Rect.Max = r.Rect.Max.Scale(k)
	}
	s.DowntownRect.Min = s.DowntownRect.Min.Scale(k)
	s.DowntownRect.Max = s.DowntownRect.Max.Scale(k)
	s.CampusRect.Min = s.CampusRect.Min.Scale(k)
	s.CampusRect.Max = s.CampusRect.Max.Scale(k)
	for i := range s.Rivers {
		s.Rivers[i].Start = s.Rivers[i].Start.Scale(k)
		s.Rivers[i].End = s.Rivers[i].End.Scale(k)
		s.Rivers[i].Width *= k
	}
	for i := range s.Parks {
		scaleRect(&s.Parks[i])
	}
	for i := range s.Highways {
		scaleRect(&s.Highways[i])
	}
	return s
}

// percentile is stats.Percentile, but 0 rather than NaN on an empty
// sample: a row with nothing to summarize reports zeros.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(xs, p)
}

// p50 is the median under percentile's empty rule.
func p50(xs []float64) float64 { return percentile(xs, 50) }

// ratio is k/n, 0 when n is 0.
func ratio(k, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(k) / float64(n)
}

// delivery is one send of a pair sweep; the zero value is a send that
// never ran (no route, or a planning error).
type delivery struct {
	ran, delivered bool
	bcasts         float64
	// overhead is broadcasts over the ideal unicast transmission count, 0
	// when not measured.
	overhead float64
	delayMs  float64
}

// tally folds a pair sweep's deliveries in task-index order, so it is the
// same at any parallelism. Sends that never ran are not counted.
type tally struct {
	pairs, delivered int
	// bcasts holds every send's cost; overheads (where measured) and
	// delaysMs only the delivered sends'.
	bcasts, overheads, delaysMs []float64
}

func tallyOf(outs []delivery) tally {
	var t tally
	for _, o := range outs {
		if !o.ran {
			continue
		}
		t.pairs++
		t.bcasts = append(t.bcasts, o.bcasts)
		if o.delivered {
			t.delivered++
			t.delaysMs = append(t.delaysMs, o.delayMs)
			if o.overhead > 0 {
				t.overheads = append(t.overheads, o.overhead)
			}
		}
	}
	return t
}

func (t tally) rate() float64 { return ratio(t.delivered, t.pairs) }

func (t tally) ablationRow(label string) AblationRow {
	return AblationRow{
		Label: label, Pairs: t.pairs, Deliverability: t.rate(),
		OverheadMedian: p50(t.overheads), BroadcastsP50: p50(t.bcasts),
	}
}

// firstN returns the first want candidates of 0..n-1, in index order, for
// which try succeeds. Candidates run on the parallel runner in chunks of
// at least the worker count; try must depend only on its index (seed it
// with runner.TaskSeed), so the accepted set does not depend on chunk
// boundaries or scheduling, and output is the same at any parallelism.
func firstN[T any](par, n, want int, try func(i int) (T, bool)) []T {
	type result struct {
		v  T
		ok bool
	}
	var out []T
	for idx := 0; len(out) < want && idx < n; {
		chunk := min(max(want-len(out), runner.Parallelism(par)), n-idx)
		for _, r := range runner.Map(par, chunk, func(k int) result {
			v, ok := try(idx + k)
			return result{v, ok}
		}) {
			if r.ok && len(out) < want {
				out = append(out, r.v)
			}
		}
		idx += chunk
	}
	return out
}
