package agent

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"citymesh/internal/osm"
	"citymesh/internal/packet"
)

// stormAgent builds a cheap agent with an injectable clock and tight
// budgets, suitable for hostile-input tests without a city map.
func stormAgent(clock func() time.Time) *Agent {
	return New(Config{
		ID:                 1,
		Building:           -1,
		City:               &osm.City{Name: "storm"},
		DedupCap:           256,
		NeighborRate:       50,
		NeighborBurst:      50,
		InboundBytesPerSec: 64 << 10,
		InboundBurstBytes:  64 << 10,
		Clock:              clock,
	}, nil)
}

// TestMalformedFrameStorm is the acceptance scenario: a storm of garbage,
// truncated, oversized and duplicate frames from many (mostly forged)
// sources. The agent must never panic, must account every frame in a
// per-cause counter, and must hold bounded memory.
func TestMalformedFrameStorm(t *testing.T) {
	now := time.Unix(5000, 0)
	var mu sync.Mutex
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	a := stormAgent(clock)

	rng := rand.New(rand.NewSource(42))
	valid, err := (&packet.Packet{
		Header: packet.Header{
			TTL:       8,
			MsgID:     777,
			Waypoints: []uint32{1, 2, 3},
		},
		Payload: []byte("legit"),
	}).Encode(nil)
	if err != nil {
		t.Fatal(err)
	}

	const frames = 20000
	for i := 0; i < frames; i++ {
		src := fmt.Sprintf("10.0.%d.%d:9999", rng.Intn(64), rng.Intn(256))
		switch i % 4 {
		case 0: // random garbage
			b := make([]byte, rng.Intn(64))
			rng.Read(b)
			a.HandleFrameFrom(src, b)
		case 1: // bit-flipped valid frame
			b := append([]byte(nil), valid...)
			b[rng.Intn(len(b))] ^= byte(1 << rng.Intn(8))
			a.HandleFrameFrom(src, b)
		case 2: // oversized frame
			a.HandleFrameFrom(src, make([]byte, packet.MaxFrameLen+1))
		case 3: // replayed valid frame (duplicate after the first)
			a.HandleFrameFrom(src, valid)
		}
		if i%100 == 0 {
			mu.Lock()
			now = now.Add(10 * time.Millisecond)
			mu.Unlock()
		}
	}

	st := a.Stats()
	if st.PanicsRecovered != 0 {
		t.Errorf("handler panicked %d times during the storm", st.PanicsRecovered)
	}
	// Every frame is accounted: received (first valid + duplicates that
	// passed the limiter) or dropped with a cause.
	accounted := st.Received + st.Dropped
	if accounted != frames {
		t.Errorf("accounted %d of %d frames (stats %+v)", accounted, frames, st)
	}
	if st.Dropped != st.DroppedMalformed+st.DroppedOversized+st.DroppedRateLimited+
		st.DroppedReplayed+st.DroppedTampered {
		t.Errorf("per-cause drops do not sum to Dropped: %+v", st)
	}
	if st.DroppedMalformed == 0 || st.DroppedOversized == 0 || st.DroppedRateLimited == 0 {
		t.Errorf("storm should hit every drop cause: %+v", st)
	}
	if st.DroppedReplayed == 0 {
		t.Errorf("repeated (source, msg) frames not classified as replays: %+v", st)
	}
	if st.Duplicates == 0 {
		t.Errorf("flood-overlap duplicates not recorded: %+v", st)
	}

	// Bounded memory: every adversary-controlled table respects its cap.
	a.mu.Lock()
	dedupLen := a.seen.Len()
	pairLen := a.pairSeen.Len()
	neighborLen := len(a.neighbors)
	a.mu.Unlock()
	if dedupLen > 256 {
		t.Errorf("dedup cache grew to %d entries, cap 256", dedupLen)
	}
	if pairLen > 256 {
		t.Errorf("replay pair-set grew to %d entries, cap 256", pairLen)
	}
	if neighborLen > maxNeighborEntries {
		t.Errorf("neighbor table grew to %d entries, cap %d", neighborLen, maxNeighborEntries)
	}
	if n := a.limiter.sourceCount(); n > DefaultMaxSources {
		t.Errorf("limiter tracks %d sources, cap %d", n, DefaultMaxSources)
	}
}

// TestRateLimiterShedsBeforeDecode verifies a single-source flood degrades
// to rate-limited drops (cheap) rather than malformed drops (which would
// mean we paid for a decode).
func TestRateLimiterShedsBeforeDecode(t *testing.T) {
	now := time.Unix(6000, 0)
	a := stormAgent(func() time.Time { return now })
	garbage := []byte("??????")
	for i := 0; i < 1000; i++ {
		a.HandleFrameFrom("1.2.3.4:5", garbage)
	}
	st := a.Stats()
	if st.Dropped != 1000 {
		t.Fatalf("dropped %d of 1000", st.Dropped)
	}
	// First 50 (the burst) reach the decoder and fail as malformed; the
	// rest must be shed by the limiter without decoding.
	if st.DroppedMalformed != 50 || st.DroppedRateLimited != 950 {
		t.Errorf("malformed=%d rateLimited=%d, want 50/950", st.DroppedMalformed, st.DroppedRateLimited)
	}
}

// TestUnidentifiedSourceSkipsPerSourceLimit pins the in-process hub
// behavior: frames without a source are not per-source limited (the hub is
// trusted), only the global byte budget applies.
func TestUnidentifiedSourceSkipsPerSourceLimit(t *testing.T) {
	now := time.Unix(7000, 0)
	a := New(Config{ID: 1, Building: -1, City: &osm.City{Name: "x"},
		NeighborRate: 1, NeighborBurst: 1, Clock: func() time.Time { return now }}, nil)
	for i := 0; i < 100; i++ {
		a.HandleFrame([]byte("junk"))
	}
	if st := a.Stats(); st.DroppedRateLimited != 0 || st.DroppedMalformed != 100 {
		t.Errorf("stats = %+v", st)
	}
}

// TestHandleFramePanicRecovered proves the supervisor contract: a panic in
// the delivery callback is absorbed and counted, and the agent keeps
// serving afterwards.
func TestHandleFramePanicRecovered(t *testing.T) {
	n := testNetwork(t, 98)
	pkt := reachablePacket(t, n, 7)
	dst := pkt.Header.Dst()
	ap := n.Mesh.APsInBuilding(dst)
	if len(ap) == 0 {
		t.Skip("no AP in destination building")
	}
	cfg := Config{ID: 0, Building: dst, City: n.City,
		Pos: n.City.Buildings[dst].Centroid}
	a := New(cfg, nil)
	a.OnDeliver(func(*packet.Packet) { panic("hostile callback") })
	frame, err := pkt.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	a.HandleFrameFrom("9.9.9.9:1", frame)
	st := a.Stats()
	if st.PanicsRecovered != 1 {
		t.Fatalf("panic not recovered: %+v", st)
	}
	// Agent still processes frames after the panic.
	a.HandleFrameFrom("9.9.9.9:1", []byte("junk"))
	if st := a.Stats(); st.DroppedMalformed != 1 {
		t.Errorf("agent dead after recovered panic: %+v", st)
	}
}
