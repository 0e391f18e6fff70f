package fwd

import (
	"fmt"
	"testing"

	"citymesh/internal/geo"
	"citymesh/internal/packet"
)

// gridView is a minimal MapView: buildings on a line along the x-axis,
// spaced 100 m apart, so conduit geometry is easy to reason about.
type gridView struct {
	centroids []geo.Point
}

func (v *gridView) NumBuildings() int        { return len(v.centroids) }
func (v *gridView) Centroid(b int) geo.Point { return v.centroids[b] }

// lineCity returns n buildings at (0,0), (100,0), ..., ((n-1)*100, 0).
func lineCity(n int) *gridView {
	v := &gridView{}
	for i := 0; i < n; i++ {
		v.centroids = append(v.centroids, geo.Pt(float64(i)*100, 0))
	}
	return v
}

// header builds a route header across waypoint buildings with default
// width (50 m half-width conduits).
func header(ttl uint8, waypoints ...uint32) *packet.Header {
	return &packet.Header{TTL: ttl, MsgID: 42, Waypoints: waypoints}
}

func TestFirstHopAlwaysTransmits(t *testing.T) {
	view := lineCity(3)
	hdr := header(8, 0, 2)
	// Self far outside every conduit: the injection AP still transmits.
	self := Self{Pos: geo.Pt(0, 5000), Building: -1}
	v := Decide(view, hdr, self, true)
	if !v.Rebroadcast || v.Reason != ReasonFirstHop {
		t.Fatalf("first hop: got %+v, want rebroadcast with ReasonFirstHop", v)
	}
	if v.Deliver {
		t.Fatalf("first hop far from destination should not deliver: %+v", v)
	}
	// Even with an exhausted TTL the injection transmits: first-hop wins.
	v = Decide(view, header(1, 0, 2), self, true)
	if !v.Rebroadcast || v.Reason != ReasonFirstHop {
		t.Fatalf("first hop with TTL 1: got %+v, want rebroadcast", v)
	}
}

func TestTTLExpiredSuppressesForwardNotDelivery(t *testing.T) {
	view := lineCity(3)
	hdr := header(1, 0, 2)
	// The destination AP hears the frame with TTL 1: it must deliver the
	// payload but not forward it.
	dst := Self{Pos: geo.Pt(200, 0), Building: 2}
	v := Decide(view, hdr, dst, false)
	if v.Rebroadcast {
		t.Fatalf("TTL 1 must suppress rebroadcast: %+v", v)
	}
	if !v.Deliver {
		t.Fatalf("destination with expired TTL must still deliver: %+v", v)
	}
	if v.Reason != ReasonTTLExpired {
		t.Fatalf("reason = %v, want %v", v.Reason, ReasonTTLExpired)
	}
}

func TestRelayUsesOwnPositionBuildingUsesCentroid(t *testing.T) {
	view := lineCity(3)
	hdr := header(8, 0, 2)

	// A relay AP (no building) standing inside the conduit rebroadcasts on
	// its own position.
	relayIn := Self{Pos: geo.Pt(150, 30), Building: -1}
	if v := Decide(view, hdr, relayIn, false); !v.Rebroadcast || v.Reason != ReasonInConduit {
		t.Fatalf("in-conduit relay: got %+v", v)
	}
	// The same position outside the conduit suppresses.
	relayOut := Self{Pos: geo.Pt(150, 200), Building: -1}
	if v := Decide(view, hdr, relayOut, false); v.Rebroadcast || v.Reason != ReasonOutOfConduit {
		t.Fatalf("out-of-conduit relay: got %+v", v)
	}

	// A building-hosted AP is judged by its building's centroid, not where
	// its own radio happens to sit: building 1's centroid (100,0) is inside
	// the conduit even though this AP's position is far outside.
	hosted := Self{Pos: geo.Pt(150, 5000), Building: 1}
	if v := Decide(view, hdr, hosted, false); !v.Rebroadcast || v.Reason != ReasonInConduit {
		t.Fatalf("centroid-in, position-out must rebroadcast: got %+v", v)
	}
	// And the converse: position inside, centroid outside — suppressed.
	farView := lineCity(3)
	farView.centroids[1] = geo.Pt(100, 5000)
	hosted = Self{Pos: geo.Pt(100, 0), Building: 1}
	if v := Decide(farView, hdr, hosted, false); v.Rebroadcast {
		t.Fatalf("centroid-out, position-in must suppress: got %+v", v)
	}
}

func TestGeocastDeliversAndForwardsInDisc(t *testing.T) {
	view := lineCity(5)
	hdr := header(8, 0, 4)
	hdr.Flags |= packet.FlagGeocast
	hdr.Target = packet.GeocastArea{CenterX: 200, CenterY: 400, Radius: 100}

	// In-disc AP outside every conduit: geocast both delivers and forwards.
	inDisc := Self{Pos: geo.Pt(200, 350), Building: -1}
	v := Decide(view, hdr, inDisc, false)
	if !v.Rebroadcast || v.Reason != ReasonGeocast {
		t.Fatalf("in-disc AP: got %+v, want geocast rebroadcast", v)
	}
	if !v.Deliver {
		t.Fatalf("in-disc AP must deliver: %+v", v)
	}

	// Same AP with exhausted TTL: delivery survives, forwarding does not.
	exhausted := header(1, 0, 4)
	exhausted.Flags = hdr.Flags
	exhausted.Target = hdr.Target
	v = Decide(view, exhausted, inDisc, false)
	if v.Rebroadcast {
		t.Fatalf("expired-TTL geocast must not forward: %+v", v)
	}
	if !v.Deliver {
		t.Fatalf("expired-TTL geocast must still deliver: %+v", v)
	}

	// Out-of-disc, in-conduit AP: normal conduit forwarding, no delivery.
	transit := Self{Pos: geo.Pt(200, 0), Building: 2}
	v = Decide(view, hdr, transit, false)
	if !v.Rebroadcast || v.Reason != ReasonInConduit {
		t.Fatalf("out-of-disc transit AP: got %+v", v)
	}
	if v.Deliver {
		t.Fatalf("out-of-disc transit AP must not deliver: %+v", v)
	}
}

func TestBadRouteSuppresses(t *testing.T) {
	view := lineCity(3)
	self := Self{Pos: geo.Pt(0, 0), Building: 0}

	// No waypoints at all.
	if v := Decide(view, &packet.Header{TTL: 8, MsgID: 1}, self, false); v.Rebroadcast || v.Reason != ReasonBadRoute {
		t.Fatalf("empty waypoints: got %+v", v)
	}
	// Waypoint index beyond the map.
	if v := Decide(view, header(8, 0, 99), self, false); v.Rebroadcast || v.Reason != ReasonBadRoute {
		t.Fatalf("unknown waypoint: got %+v", v)
	}
	// No map at all (an agent still syncing its map cannot judge conduits).
	if v := Decide(nil, header(8, 0, 2), self, false); v.Rebroadcast || v.Reason != ReasonBadRoute {
		t.Fatalf("nil view: got %+v", v)
	}
}

func TestKernelAgreesWithPureDecide(t *testing.T) {
	view := lineCity(6)
	k := NewKernel(Options{})
	selves := []Self{
		{Pos: geo.Pt(150, 0), Building: -1},
		{Pos: geo.Pt(150, 400), Building: -1},
		{Pos: geo.Pt(300, 0), Building: 3},
		{Pos: geo.Pt(500, 0), Building: 5},
		{Pos: geo.Pt(0, 0), Building: 0},
	}
	hdrs := []*packet.Header{
		header(8, 0, 5),
		header(1, 0, 5),
		header(8, 0, 2, 5),
		{TTL: 8, MsgID: 7},
	}
	g := header(8, 0, 5)
	g.Flags |= packet.FlagGeocast
	g.Target = packet.GeocastArea{CenterX: 150, CenterY: 0, Radius: 60}
	hdrs = append(hdrs, g)

	for hi, hdr := range hdrs {
		for si, self := range selves {
			for _, firstHop := range []bool{false, true} {
				want := Decide(view, hdr, self, firstHop)
				got := k.Decide(view, hdr, self, firstHop)
				if got != want {
					t.Fatalf("hdr %d self %d firstHop=%v: kernel %+v != pure %+v",
						hi, si, firstHop, got, want)
				}
			}
		}
	}
	if c := k.Counts(); c.Total() != uint64(len(hdrs)*len(selves)*2) {
		t.Fatalf("counted %d decisions, want %d", c.Total(), len(hdrs)*len(selves)*2)
	}
}

func TestKernelCountsBreakdown(t *testing.T) {
	view := lineCity(3)
	k := NewKernel(Options{})
	hdr := header(8, 0, 2)

	k.Decide(view, hdr, Self{Pos: geo.Pt(0, 0), Building: 0}, true)                // first hop
	k.Decide(view, hdr, Self{Pos: geo.Pt(100, 0), Building: 1}, false)             // in conduit
	k.Decide(view, hdr, Self{Pos: geo.Pt(100, 900), Building: -1}, false)          // out of conduit
	k.Decide(view, header(1, 0, 2), Self{Pos: geo.Pt(200, 0), Building: 2}, false) // ttl

	c := k.Counts()
	want := Counts{FirstHop: 1, InConduit: 1, OutOfConduit: 1, TTLExpired: 1}
	if c != want {
		t.Fatalf("counts = %+v, want %+v", c, want)
	}
}

func TestConcurrentKernelDecides(t *testing.T) {
	view := lineCity(4)
	k := NewKernel(Options{})
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			self := Self{Pos: geo.Pt(float64(g)*40, 0), Building: -1}
			for i := 0; i < 200; i++ {
				hdr := header(8, 0, 3)
				hdr.MsgID = uint64(i % 32)
				want := Decide(view, hdr, self, false)
				if got := k.Decide(view, hdr, self, false); got != want {
					done <- fmt.Errorf("goroutine %d msg %d: %+v != %+v", g, i, got, want)
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestReasonStrings(t *testing.T) {
	for r := ReasonFirstHop; r < numReasons; r++ {
		if r.String() == "unknown" {
			t.Fatalf("reason %d has no name", r)
		}
	}
	if numReasons.String() != "unknown" {
		t.Fatalf("out-of-range reason should stringify as unknown")
	}
}

// TestKernelCacheUnderMovement: a message's conduit region is pure
// geometry — the mover's own position enters per decision via Self. A node
// drifting across the conduit boundary (a relay on a moving vehicle) must
// see its verdict flip at the boundary and agree with the pure decision at
// every step.
func TestKernelCacheUnderMovement(t *testing.T) {
	view := lineCity(6)
	k := NewKernel(Options{})
	hdr := header(8, 0, 5)

	// Walk a mobile relay from the conduit spine out to 1 km abeam and
	// back, deciding the same message at every step.
	var flips []Reason
	prev := Reason(255)
	for _, y := range []float64{0, 30, 120, 400, 1000, 400, 120, 30, 0} {
		v := k.Decide(view, hdr, Self{Pos: geo.Pt(250, y), Building: -1}, false)
		if v.Reason != ReasonInConduit && v.Reason != ReasonOutOfConduit {
			t.Fatalf("y=%v: unexpected reason %v", y, v.Reason)
		}
		if v.Reason != prev {
			flips = append(flips, v.Reason)
			prev = v.Reason
		}
		if want := Decide(view, hdr, Self{Pos: geo.Pt(250, y), Building: -1}, false); v != want {
			t.Fatalf("y=%v: kernel verdict %+v diverges from pure %+v", y, v, want)
		}
	}
	// On the spine it forwards; far abeam it suppresses; back on the spine
	// it forwards again — three regimes.
	if len(flips) != 3 || flips[0] != ReasonInConduit || flips[1] != ReasonOutOfConduit || flips[2] != ReasonInConduit {
		t.Fatalf("verdict regimes along the drive = %v, want in/out/in", flips)
	}
}
