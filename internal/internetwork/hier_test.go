package internetwork

import (
	"fmt"
	"reflect"
	"testing"

	"citymesh/internal/citygen"
	"citymesh/internal/core"
	"citymesh/internal/geo"
)

// lineFederation registers one region per anchor, in order, all sharing
// one small city: l1Allowed reads nothing but the anchors.
func lineFederation(t *testing.T, anchors ...geo.Point) *Internetwork {
	t.Helper()
	n, err := core.FromSpec(citygen.SmallTestSpec(1), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	in := New()
	for i, p := range anchors {
		addAnchor(t, in, n, i, p)
	}
	return in
}

func addAnchor(t *testing.T, in *Internetwork, n *core.Network, i int, p geo.Point) {
	t.Helper()
	r := &Region{ID: RegionID(fmt.Sprintf("r%d", i)), Net: n, Gateways: []int{0}, Pos: p}
	if err := in.AddRegion(r); err != nil {
		t.Fatal(err)
	}
}

func TestL1AllowedIsTheConduitCorridor(t *testing.T) {
	// Regions 0..4 on a line 50 km apart, region 5 far off the axis.
	in := lineFederation(t,
		geo.Pt(0, 0), geo.Pt(50, 0), geo.Pt(100, 0), geo.Pt(150, 0), geo.Pt(200, 0),
		geo.Pt(100, 400))

	got := in.l1Allowed(0, 4, DefaultL1WidthKm)
	want := map[int]bool{0: true, 1: true, 2: true, 3: true, 4: true}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("allowed = %v, want the corridor %v", got, want)
	}
	// The off-axis region is an endpoint: src and dst are always allowed,
	// whatever the conduit test says about them.
	got = in.l1Allowed(5, 2, DefaultL1WidthKm)
	if !got[5] || !got[2] {
		t.Fatalf("allowed(5, 2) = %v misses an endpoint", got)
	}

	// Growing the federation after a call: the next call sees the new
	// region on the corridor, with no stale region in between.
	addAnchor(t, in, in.regions["r0"].Net, 6, geo.Pt(125, 10))
	got = in.l1Allowed(0, 4, DefaultL1WidthKm)
	want[6] = true
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after AddRegion: allowed = %v, want %v", got, want)
	}
}

func TestL1AllowedDegenerateGeometry(t *testing.T) {
	// Coincident anchors and a conduit recruiting nothing beyond its
	// endpoints both mean "no constraint".
	in := lineFederation(t, geo.Pt(0, 0), geo.Pt(0, 0), geo.Pt(1000, 0), geo.Pt(1000, 1000))
	if got := in.l1Allowed(0, 1, DefaultL1WidthKm); got != nil {
		t.Fatalf("coincident endpoints: allowed = %v, want nil", got)
	}
	if got := in.l1Allowed(2, 3, DefaultL1WidthKm); got != nil {
		t.Fatalf("endpoints only: allowed = %v, want nil", got)
	}
}
