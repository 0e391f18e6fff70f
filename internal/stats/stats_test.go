package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4}, {10, 1.4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty percentile should be NaN")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	Percentile(xs, 50)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestMeanMedian(t *testing.T) {
	xs := []float64{2, 4, 6, 8}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v", m)
	}
	if m := Median(xs); m != 5 {
		t.Errorf("Median = %v", m)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("empty mean should be NaN")
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3, 10})
	if c.Len() != 5 {
		t.Fatalf("Len = %d", c.Len())
	}
	if got := c.Min(); got != 1 {
		t.Errorf("Min = %v", got)
	}
	if got := c.Max(); got != 10 {
		t.Errorf("Max = %v", got)
	}
	if got := c.Quantile(0.5); got != 2 {
		t.Errorf("Quantile(0.5) = %v", got)
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	pts := c.Points(5)
	if len(pts) != 5 {
		t.Fatalf("Points len = %d", len(pts))
	}
	// Monotone in both coordinates.
	for i := 1; i < len(pts); i++ {
		if pts[i][0] < pts[i-1][0] || pts[i][1] < pts[i-1][1] {
			t.Errorf("points not monotone: %v", pts)
		}
	}
	if last := pts[len(pts)-1]; last[0] != 10 || last[1] != 1 {
		t.Errorf("last point = %v, want (10, 1)", last)
	}
	if got := NewCDF(nil).Points(5); got != nil {
		t.Error("empty CDF Points should be nil")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if s.N != 10 || s.Min != 1 || s.Max != 10 || s.Mean != 5.5 || s.P50 != 5.5 {
		t.Errorf("Summary = %+v", s)
	}
	empty := Summarize(nil)
	if empty.N != 0 || !math.IsNaN(empty.P50) {
		t.Errorf("empty Summary = %+v", empty)
	}
	if s.String() == "" {
		t.Error("String should be non-empty")
	}
}

func TestBinned(t *testing.T) {
	b := NewBinned(25)
	b.Add(10, 1)
	b.Add(12, 3)
	b.Add(30, 5)
	b.Add(99, 7)
	sums := b.Summaries()
	if len(sums) != 3 {
		t.Fatalf("bins = %d, want 3", len(sums))
	}
	if sums[0].Lo != 0 || sums[0].Hi != 25 || sums[0].N != 2 || sums[0].Mean != 2 {
		t.Errorf("bin0 = %+v", sums[0])
	}
	if sums[1].Lo != 25 || sums[1].N != 1 {
		t.Errorf("bin1 = %+v", sums[1])
	}
	if sums[2].Lo != 75 {
		t.Errorf("bin2 = %+v", sums[2])
	}
	if b.Table() == "" {
		t.Error("Table should be non-empty")
	}
}

func TestBinnedZeroWidth(t *testing.T) {
	b := NewBinned(0)
	b.Add(1.5, 1)
	if len(b.Summaries()) != 1 {
		t.Error("clamped bin width should still bin")
	}
}

// Property: the plotted CDF curve is nondecreasing in both x and
// P(X<=x).
func TestQuickCDFMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(200)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		c := NewCDF(xs)
		prev := [2]float64{math.Inf(-1), 0}
		for _, p := range c.Points(20) {
			if p[0] < prev[0] || p[1] < prev[1] {
				t.Fatalf("CDF not monotone: %v after %v", p, prev)
			}
			prev = p
		}
	}
}

// Property: percentile is order-preserving in p and bounded by min/max.
func TestQuickPercentileBounds(t *testing.T) {
	f := func(raw []float64, p1, p2 float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p1 = math.Mod(math.Abs(p1), 100)
		p2 = math.Mod(math.Abs(p2), 100)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		v1, v2 := Percentile(xs, p1), Percentile(xs, p2)
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		return v1 <= v2 && v1 >= s[0] && v2 <= s[len(s)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
