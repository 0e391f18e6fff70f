package experiments

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"citymesh/internal/citygen"
)

func TestMeasurementStudy(t *testing.T) {
	res, err := MeasurementStudy(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, area := range res.Areas {
		row, ok := res.Rows[area]
		if !ok {
			t.Fatalf("missing area %s", area)
		}
		if row.Measurements == 0 {
			t.Errorf("%s: no measurements", area)
		}
		if row.UniqueAPs == 0 {
			t.Errorf("%s: no APs detected", area)
		}
	}
	// Density ordering: downtown sees more MACs per measurement than the
	// river bank (paper: medians 218 vs 60).
	dt := res.MACsPerMeasurement["downtown"].Quantile(0.5)
	rv := res.MACsPerMeasurement["river"].Quantile(0.5)
	if !(dt > rv) {
		t.Errorf("downtown median %v should exceed river %v", dt, rv)
	}
	// Spread medians exist and are positive.
	for _, area := range res.Areas {
		if s := res.Spread[area].Quantile(0.5); !(s > 0) || math.IsNaN(s) {
			t.Errorf("%s spread median = %v", area, s)
		}
	}
	for _, txt := range []string{res.Table1Text(), res.Figure1Text(), res.Figure2Text(), res.CSV()} {
		if txt == "" {
			t.Error("empty rendering")
		}
	}
	if !strings.Contains(res.Table1Text(), "downtown") {
		t.Error("Table1Text missing areas")
	}
}

func TestFigure6SmallScale(t *testing.T) {
	cfg := Figure6Config{
		Cities:       []string{"gridtown", "dc"},
		ReachPairs:   120,
		DeliverPairs: 10,
		Seed:         1,
		Scale:        0.35,
	}
	rows, err := Figure6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	byCity := map[string]Figure6Row{}
	for _, r := range rows {
		byCity[r.City] = r
		if r.Buildings == 0 || r.APs == 0 {
			t.Errorf("%s: empty city", r.City)
		}
		if r.Reachability < 0 || r.Reachability > 1 {
			t.Errorf("%s: reachability %v", r.City, r.Reachability)
		}
	}
	// The gap-free grid must beat the river-fractured DC on reachability.
	if byCity["gridtown"].Reachability <= byCity["dc"].Reachability {
		t.Errorf("gridtown %.2f should out-reach dc %.2f",
			byCity["gridtown"].Reachability, byCity["dc"].Reachability)
	}
	// DC should fracture into multiple islands.
	if byCity["dc"].Islands < 2 {
		t.Errorf("dc islands = %d, want >= 2", byCity["dc"].Islands)
	}
	if Figure6Text(rows) == "" || Figure6CSV(rows) == "" {
		t.Error("empty renderings")
	}
	if _, err := Figure6(Figure6Config{Cities: []string{"nope"}}); err == nil {
		t.Error("unknown city should error")
	}
}

func TestFigure6GridtownDelivers(t *testing.T) {
	rows, err := Figure6(Figure6Config{
		Cities: []string{"gridtown"}, ReachPairs: 100, DeliverPairs: 12, Seed: 2, Scale: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Reachability < 0.9 {
		t.Errorf("gridtown reachability = %.2f, want ~1", r.Reachability)
	}
	if r.Deliverability < 0.7 {
		t.Errorf("gridtown deliverability = %.2f", r.Deliverability)
	}
	if r.OverheadMedian < 1 {
		t.Errorf("overhead median = %.2f < 1", r.OverheadMedian)
	}
}

func TestFigure5Renders(t *testing.T) {
	var a, b bytes.Buffer
	if err := Figure5("gridtown", 0.3, &a, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(a.String(), "<svg") || !strings.Contains(b.String(), "<svg") {
		t.Error("missing SVG output")
	}
	if len(b.String()) < len(a.String()) {
		t.Error("mesh panel should be larger (links + dots)")
	}
	if err := Figure5("nope", 1, &a, &b); err == nil {
		t.Error("unknown city should error")
	}
}

func TestFigure7Renders(t *testing.T) {
	var buf bytes.Buffer
	res, err := Figure7("gridtown", 0.3, 3, 1, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "<svg") {
		t.Error("missing SVG")
	}
	if res.Forwarded == 0 {
		t.Error("no forwarding APs in figure")
	}
	if res.Broadcasts == 0 {
		t.Error("no broadcasts")
	}
	if _, err := Figure7("nope", 1, 1, 1, &buf); err == nil {
		t.Error("unknown city should error")
	}
}

func TestHeaderSizes(t *testing.T) {
	res, err := HeaderSizes("gridtown", 0.4, 1, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Routes == 0 {
		t.Fatal("no routes sampled")
	}
	// Compression must not grow the route.
	if res.Waypoints.P50 > res.UncompressedWps.P50 {
		t.Errorf("waypoints p50 %v > uncompressed %v", res.Waypoints.P50, res.UncompressedWps.P50)
	}
	// Bits should land in the paper's order of magnitude (tens to a few
	// hundred bits).
	if res.RouteBits.P50 < 16 || res.RouteBits.P50 > 600 {
		t.Errorf("route bits p50 = %v", res.RouteBits.P50)
	}
	if res.FullHeaderBits.P50 <= res.RouteBits.P50 {
		t.Error("full header must exceed route encoding")
	}
	// The federation prefix is small and constant-order; the hierarchical
	// header is the full header plus the prefix.
	if res.PrefixBits.P50 <= 0 || res.PrefixBits.P90 > 64 {
		t.Errorf("prefix bits p50=%v p90=%v", res.PrefixBits.P50, res.PrefixBits.P90)
	}
	if res.HierHeaderBits.P50 <= res.FullHeaderBits.P50 ||
		res.HierHeaderBits.Max > res.FullHeaderBits.Max+res.PrefixBits.Max {
		t.Errorf("hier header (p50 %v, max %v) inconsistent with full (p50 %v, max %v) + prefix (max %v)",
			res.HierHeaderBits.P50, res.HierHeaderBits.Max,
			res.FullHeaderBits.P50, res.FullHeaderBits.Max, res.PrefixBits.Max)
	}
	if res.Text() == "" {
		t.Error("empty text")
	}
	if _, err := HeaderSizes("nope", 1, 1, 10, 1); err == nil {
		t.Error("unknown city should error")
	}
}

func TestConduitWidthSweep(t *testing.T) {
	rows, err := ConduitWidthSweep("gridtown", 0.3, 1, []float64{30, 80}, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Wider conduits must broadcast at least as much.
	if rows[1].BroadcastsP50 < rows[0].BroadcastsP50 {
		t.Errorf("W=80 broadcasts %v < W=30 %v", rows[1].BroadcastsP50, rows[0].BroadcastsP50)
	}
	if AblationText("t", rows) == "" {
		t.Error("empty text")
	}
	if _, err := ConduitWidthSweep("nope", 1, 1, nil, 1, 1); err == nil {
		t.Error("unknown city should error")
	}
}

func TestWeightExponentSweep(t *testing.T) {
	rows, err := WeightExponentSweep("gridtown", 0.3, 1, []float64{1, 3}, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Pairs == 0 {
			t.Errorf("%s: no pairs", r.Label)
		}
	}
	if _, err := WeightExponentSweep("nope", 1, 1, nil, 1, 1); err == nil {
		t.Error("unknown city should error")
	}
}

func TestBaselineComparison(t *testing.T) {
	rows, err := BaselineComparison("gridtown", 0.3, 1, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]AblationRow{}
	for _, r := range rows {
		byLabel[r.Label] = r
	}
	cm, okCM := byLabel["citymesh"]
	fl, okFL := byLabel["flood"]
	if !okCM || !okFL {
		t.Fatalf("missing rows: %v", byLabel)
	}
	if fl.Deliverability < cm.Deliverability {
		t.Errorf("flood %.2f under-delivers citymesh %.2f", fl.Deliverability, cm.Deliverability)
	}
	if cm.BroadcastsP50 >= fl.BroadcastsP50 {
		t.Errorf("citymesh broadcasts %v >= flood %v", cm.BroadcastsP50, fl.BroadcastsP50)
	}
	if _, ok := byLabel["aodv-model"]; !ok {
		t.Error("missing AODV row")
	}
	if _, err := BaselineComparison("nope", 1, 1, 1, 1); err == nil {
		t.Error("unknown city should error")
	}
}

func TestFailureInjection(t *testing.T) {
	rows, err := FailureInjection("gridtown", 0.3, 1, []float64{0, 0.6}, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Deliverability < rows[1].Deliverability {
		t.Errorf("no-failure deliverability %.2f < 60%%-failure %.2f",
			rows[0].Deliverability, rows[1].Deliverability)
	}
	if _, err := FailureInjection("nope", 1, 1, nil, 1, 1); err == nil {
		t.Error("unknown city should error")
	}
}

func TestFailSet(t *testing.T) {
	if failSet(100, 0, 1) != nil {
		t.Error("zero fraction should be nil")
	}
	f := failSet(10000, 0.3, 1)
	if f.Len() < 2500 || f.Len() > 3500 {
		t.Errorf("30%% of 10000 = %d failed", f.Len())
	}
	// Deterministic.
	g := failSet(10000, 0.3, 1)
	if !slices.Equal(f, g) {
		t.Error("failSet nondeterministic")
	}
}

func TestScaleSpec(t *testing.T) {
	spec, _ := citygen.Preset("dc")
	half := scaleSpec(spec, 0.5)
	if half.Width != spec.Width/2 || half.Height != spec.Height/2 {
		t.Error("extent not scaled")
	}
	if len(half.Rivers) != len(spec.Rivers) || half.Rivers[0].Width != spec.Rivers[0].Width/2 {
		t.Error("river not scaled")
	}
	if half.Parks[0].Rect.Max.X != spec.Parks[0].Rect.Max.X/2 {
		t.Error("park not scaled")
	}
}
