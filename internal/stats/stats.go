// Package stats provides the small statistical toolkit the CityMesh
// evaluation needs: empirical CDFs, percentiles, distance-binned box
// statistics (for the paper's Figures 1 and 2), and running summaries.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It returns NaN for an empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Mean returns the arithmetic mean of xs, or NaN for an empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// CDF is an empirical cumulative distribution function over a sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from the sample xs. The input is copied.
func NewCDF(xs []float64) *CDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// Len returns the sample size.
func (c *CDF) Len() int { return len(c.sorted) }

// Quantile returns the q-quantile (0 <= q <= 1) of the sample.
func (c *CDF) Quantile(q float64) float64 { return percentileSorted(c.sorted, q*100) }

// Min returns the smallest sample, or NaN if empty.
func (c *CDF) Min() float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	return c.sorted[0]
}

// Max returns the largest sample, or NaN if empty.
func (c *CDF) Max() float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	return c.sorted[len(c.sorted)-1]
}

// Points returns up to n (x, P(X<=x)) pairs sampled evenly through the
// distribution, suitable for plotting the CDF curve.
func (c *CDF) Points(n int) [][2]float64 {
	if len(c.sorted) == 0 || n <= 0 {
		return nil
	}
	if n > len(c.sorted) {
		n = len(c.sorted)
	}
	out := make([][2]float64, 0, n)
	for i := 0; i < n; i++ {
		idx := i * (len(c.sorted) - 1) / max(1, n-1)
		x := c.sorted[idx]
		out = append(out, [2]float64{x, float64(idx+1) / float64(len(c.sorted))})
	}
	return out
}

// Summary holds a five-number-style summary plus mean and count.
type Summary struct {
	N                                 int
	Min, P10, P25, P50, P75, P90, Max float64
	Mean                              float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		nan := math.NaN()
		return Summary{Min: nan, P10: nan, P25: nan, P50: nan, P75: nan, P90: nan, Max: nan, Mean: nan}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Summary{
		N:    len(s),
		Min:  s[0],
		P10:  percentileSorted(s, 10),
		P25:  percentileSorted(s, 25),
		P50:  percentileSorted(s, 50),
		P75:  percentileSorted(s, 75),
		P90:  percentileSorted(s, 90),
		Max:  s[len(s)-1],
		Mean: Mean(s),
	}
}

// String renders the summary as a single row.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.1f p25=%.1f p50=%.1f p75=%.1f p90=%.1f max=%.1f mean=%.1f",
		s.N, s.Min, s.P25, s.P50, s.P75, s.P90, s.Max, s.Mean)
}

// Binned groups (x, y) observations into fixed-width bins of x and
// summarizes the y values per bin. It is the shape of the paper's Figure 2:
// measurement-pair distance on x, common-AP count distribution on y.
type Binned struct {
	Width float64
	Bins  map[int][]float64
}

// NewBinned returns an empty binned collector with the given bin width.
func NewBinned(width float64) *Binned {
	if width <= 0 {
		width = 1
	}
	return &Binned{Width: width, Bins: make(map[int][]float64)}
}

// Add records observation y at coordinate x.
func (b *Binned) Add(x, y float64) {
	b.Bins[int(math.Floor(x/b.Width))] = append(b.Bins[int(math.Floor(x/b.Width))], y)
}

// BinSummary is the summary of one bin.
type BinSummary struct {
	// Lo and Hi bound the bin's x interval [Lo, Hi).
	Lo, Hi float64
	Summary
}

// Summaries returns per-bin summaries ordered by bin coordinate.
func (b *Binned) Summaries() []BinSummary {
	keys := make([]int, 0, len(b.Bins))
	for k := range b.Bins {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]BinSummary, 0, len(keys))
	for _, k := range keys {
		out = append(out, BinSummary{
			Lo:      float64(k) * b.Width,
			Hi:      float64(k+1) * b.Width,
			Summary: Summarize(b.Bins[k]),
		})
	}
	return out
}

// Table renders the binned summaries as an aligned text table with the
// paper's Figure 2 whisker percentiles (10/25/50/75/100).
func (b *Binned) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%12s %8s %8s %8s %8s %8s %8s\n", "bin (m)", "n", "p10", "p25", "p50", "p75", "max")
	for _, s := range b.Summaries() {
		fmt.Fprintf(&sb, "%5.0f-%-6.0f %8d %8.1f %8.1f %8.1f %8.1f %8.1f\n",
			s.Lo, s.Hi, s.N, s.P10, s.P25, s.P50, s.P75, s.Max)
	}
	return sb.String()
}
