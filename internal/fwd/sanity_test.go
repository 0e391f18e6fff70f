package fwd

import (
	"testing"

	"citymesh/internal/geo"
)

func TestSanityTTLInflationRejected(t *testing.T) {
	view := lineCity(3)
	k := NewKernel(Options{MaxTTL: 64})
	self := Self{Pos: geo.Pt(100, 0), Building: 1}

	// An in-conduit transit frame at a legal TTL passes untouched.
	v := k.Decide(view, header(64, 0, 2), self, false)
	if !v.Rebroadcast || v.Reason != ReasonInConduit {
		t.Fatalf("legal TTL: got %+v, want in-conduit rebroadcast", v)
	}

	// The same frame with TTL above the network maximum is rejected
	// outright: no rebroadcast AND no delivery, even at the destination.
	dst := Self{Pos: geo.Pt(200, 0), Building: 2}
	v = k.Decide(view, header(200, 0, 2), dst, false)
	if v.Rebroadcast || v.Deliver || v.Reason != ReasonTTLInflated {
		t.Fatalf("inflated TTL: got %+v, want outright rejection", v)
	}

	// First hop is exempt: the source header carries the full network TTL.
	v = k.Decide(view, header(200, 1, 2), self, true)
	if !v.Rebroadcast || v.Reason != ReasonFirstHop {
		t.Fatalf("first hop exempt from MaxTTL: got %+v", v)
	}

	c := k.Counts()
	if c.TTLInflated != 1 || c.BadConduit != 0 {
		t.Fatalf("counts = %+v, want exactly one ttl-inflated rejection", c)
	}
}

func TestSanityBadConduitRejected(t *testing.T) {
	view := lineCity(3)
	k := NewKernel(Options{StrictSanity: true})
	self := Self{Pos: geo.Pt(100, 0), Building: 1}

	// A waypoint index beyond the building count is unmappable by any
	// honest sender: strict sanity rejects instead of bad-route suppress.
	v := k.Decide(view, header(8, 0, 99), self, false)
	if v.Rebroadcast || v.Deliver || v.Reason != ReasonBadConduit {
		t.Fatalf("corrupt waypoints: got %+v, want bad-conduit rejection", v)
	}

	// Without strict sanity the same frame degrades to the legacy
	// bad-route suppression (delivery still possible).
	lax := NewKernel(Options{})
	v = lax.Decide(view, header(8, 0, 99), self, false)
	if v.Reason != ReasonBadRoute {
		t.Fatalf("lax kernel: got %+v, want bad-route", v)
	}

	if c := k.Counts(); c.BadConduit != 1 {
		t.Fatalf("counts = %+v, want one bad-conduit rejection", c)
	}
}

func TestSanityPreDedupEntryPoint(t *testing.T) {
	view := lineCity(3)
	k := NewKernel(Options{MaxTTL: 64, StrictSanity: true})

	if _, ok := k.Sanity(view, header(64, 0, 2), false); !ok {
		t.Fatalf("clean frame failed Sanity")
	}
	if v, ok := k.Sanity(view, header(255, 0, 2), false); ok || v.Reason != ReasonTTLInflated {
		t.Fatalf("inflated frame passed Sanity: %+v ok=%v", v, ok)
	}
	if v, ok := k.Sanity(view, header(8, 7, 2), false); ok || v.Reason != ReasonBadConduit {
		t.Fatalf("corrupt frame passed Sanity: %+v ok=%v", v, ok)
	}
	// First-hop submissions bypass sanity even with hot headers.
	if _, ok := k.Sanity(view, header(255, 0, 2), true); !ok {
		t.Fatalf("first hop must bypass Sanity")
	}
	c := k.Counts()
	if c.TTLInflated != 1 || c.BadConduit != 1 || c.Total() != 2 {
		t.Fatalf("counts = %+v, want the two rejections and nothing else", c)
	}
}
