package agent

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"citymesh/internal/core"
	"citymesh/internal/fwd"
	"citymesh/internal/packet"
	"citymesh/internal/postbox"
)

// recordPort keeps every frame broadcast through it, uncopied, so a test
// sees whatever later happens to those bytes.
type recordPort struct{ frames [][]byte }

func (p *recordPort) Broadcast(frame []byte) error {
	p.frames = append(p.frames, frame)
	return nil
}

func (*recordPort) Close() error { return nil }

// agentAt builds an agent from cfg at the first AP of building b, with a
// clock that stands still unless cfg sets one.
func agentAt(n *core.Network, b int, cfg Config) *Agent {
	id := int(n.Mesh.APsInBuilding(b)[0])
	ap := n.Mesh.APs[id]
	cfg.ID, cfg.Pos, cfg.Building, cfg.City = id, ap.Pos, ap.Building, n.City
	if cfg.Clock == nil {
		now := time.Unix(0, 0)
		cfg.Clock = func() time.Time { return now }
	}
	return New(cfg, nil)
}

// TestHandleFrameKeepsNoFrame scribbles over a frame once HandleFrameFrom
// has returned: the delivered packet, the stored postbox message and the
// rebroadcast must not change, because the handler neither keeps nor
// modifies the frame.
func TestHandleFrameKeepsNoFrame(t *testing.T) {
	n := testNetwork(t, 93)
	pkt := reachablePacket(t, n, 3)
	pkt.Header.Flags |= packet.FlagPostbox
	copy(pkt.Header.Postbox[:], "postbox!")
	var addr postbox.Address
	copy(addr[:], pkt.Header.Postbox[:])
	frame, err := pkt.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := pkt.Clone()
	want.Header.TTL--
	wantOut, err := want.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}

	// An AP of the destination building delivers, stores and, inside the
	// last conduit, rebroadcasts.
	a := agentAt(n, pkt.Header.Dst(), Config{})
	port := &recordPort{}
	a.Attach(port)
	var delivered *packet.Packet
	a.OnDeliver(func(p *packet.Packet) { delivered = p })
	a.HandleFrameFrom("ap-1", frame)
	for i := range frame {
		frame[i] = 0xA5
	}

	if delivered == nil {
		t.Fatal("the destination agent delivered nothing")
	}
	if !reflect.DeepEqual(delivered, pkt) {
		t.Errorf("delivered packet changed with the frame:\n got %v\nwant %v", delivered, pkt)
	}
	msgs := a.Store().Retrieve(addr, 0, -1)
	if len(msgs) != 1 || !bytes.Equal(msgs[0].Sealed, pkt.Payload) {
		t.Errorf("stored postbox messages = %+v, want one with the payload %q", msgs, pkt.Payload)
	}
	if len(port.frames) != 1 || !bytes.Equal(port.frames[0], wantOut) {
		t.Errorf("rebroadcast %d frames, want one equal to the TTL-1 encoding", len(port.frames))
	}
}

// TestHandleFrameAllocs pins the ingress path's allocations: a frame that is
// a duplicate, a replay, malformed, oversized or rate-limited allocates
// nothing, and a new frame inside the conduit allocates only its conduit
// region and the buffer it rebroadcasts.
func TestHandleFrameAllocs(t *testing.T) {
	const runs = 100
	// A dedup cap below the warm-up traffic fills both sets first, so the
	// measured frames evict instead of growing a table.
	const dedupCap = 64
	n := testNetwork(t, 91)
	pkt := reachablePacket(t, n, 1)
	encode := func(id uint64) []byte {
		q := pkt.Clone()
		q.Header.MsgID = id
		f, err := q.Encode(nil)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	sources := make([]string, 2*runs)
	for i := range sources {
		sources[i] = fmt.Sprintf("ap-%d", i)
	}
	// The source building's AP is in the first conduit and is not the
	// destination: it rebroadcasts and delivers nothing.
	newAgent := func(cfg Config) *Agent {
		cfg.DedupCap = dedupCap
		a := agentAt(n, pkt.Header.Src(), cfg)
		for i, src := range sources {
			a.HandleFrameFrom(src, encode(uint64(1<<32+i)))
		}
		return a
	}
	frame := encode(1)

	pin := func(name string, a *Agent, want Stats, handle func(i int)) {
		t.Helper()
		i := 0
		allocs := testing.AllocsPerRun(runs, func() { handle(i); i++ })
		if allocs != 0 {
			t.Errorf("%s frame: %v allocations, want 0", name, allocs)
		}
		got := a.Stats()
		if got.Duplicates != want.Duplicates || got.DroppedReplayed != want.DroppedReplayed ||
			got.DroppedMalformed != want.DroppedMalformed || got.DroppedOversized != want.DroppedOversized ||
			got.DroppedRateLimited != want.DroppedRateLimited {
			t.Errorf("%s frames were not all classified as such: %+v", name, got)
		}
	}

	a := newAgent(Config{})
	a.HandleFrameFrom(sources[0], frame)
	pin("duplicate", a, Stats{Duplicates: runs + 1}, func(i int) { a.HandleFrameFrom(sources[1+i], frame) })
	a = newAgent(Config{})
	a.HandleFrameFrom(sources[0], frame)
	pin("replayed", a, Stats{DroppedReplayed: runs + 1}, func(int) { a.HandleFrameFrom(sources[0], frame) })
	a = newAgent(Config{})
	pin("malformed", a, Stats{DroppedMalformed: runs + 1}, func(int) { a.HandleFrameFrom(sources[0], frame[:10]) })
	a = newAgent(Config{})
	oversized := make([]byte, packet.MaxFrameLen+1)
	pin("oversized", a, Stats{DroppedOversized: runs + 1}, func(int) { a.HandleFrameFrom(sources[0], oversized) })
	a = newAgent(Config{NeighborRate: 1, NeighborBurst: 1})
	pin("rate-limited", a, Stats{DroppedRateLimited: runs + 1}, func(int) { a.HandleFrameFrom(sources[0], frame) })

	a = newAgent(Config{})
	fresh := make([][]byte, runs+1)
	for i := range fresh {
		fresh[i] = encode(uint64(2 + i))
	}
	before := a.Stats().Rebroadcast
	i := 0
	allocs := testing.AllocsPerRun(runs, func() { a.HandleFrame(fresh[i]); i++ })
	if got := a.Stats().Rebroadcast - before; got != runs+1 {
		t.Fatalf("%d of %d new frames rebroadcast: the agent is not inside the conduit", got, runs+1)
	}
	region := testing.AllocsPerRun(runs, func() { fwd.BuildRegion(n.City, &pkt.Header) })
	if allocs > region+1 {
		t.Errorf("new in-conduit frame: %v allocations, want at most the region's %v plus one output buffer", allocs, region)
	}
}

// TestDefaultAgentHeapAtRest checks that an agent with the default
// configuration holds no dedup storage until frames arrive: its sets grow
// with the message IDs they hold.
func TestDefaultAgentHeapAtRest(t *testing.T) {
	const k = 16
	const perAgent = 64 << 10
	n := testNetwork(t, 91)
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	agents := make([]*Agent, k)
	for i := range agents {
		ap := n.Mesh.APs[i]
		agents[i] = New(Config{ID: i, Pos: ap.Pos, Building: ap.Building, City: n.City}, nil)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(agents)
	if grew := int64(ms.HeapAlloc) - int64(before); grew > k*perAgent {
		t.Errorf("%d default agents hold %d KiB, want < %d KiB each", k, grew>>10, perAgent>>10)
	}
}
