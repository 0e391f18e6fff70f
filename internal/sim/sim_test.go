package sim

import (
	"errors"
	"testing"

	"citymesh/internal/geo"
	"citymesh/internal/mesh"
	"citymesh/internal/osm"
	"citymesh/internal/packet"
)

// chainCity builds n one-AP buildings in a line with the given spacing so
// that each AP reaches only its immediate neighbors.
func chainCity(n int, spacing float64) (*osm.City, *mesh.Mesh) {
	city := &osm.City{Name: "chain"}
	for i := 0; i < n; i++ {
		c := geo.Pt(float64(i)*spacing, 0)
		fp := geo.Polygon{
			c.Add(geo.Pt(-2, -2)), c.Add(geo.Pt(2, -2)),
			c.Add(geo.Pt(2, 2)), c.Add(geo.Pt(-2, 2)),
		}
		city.Buildings = append(city.Buildings, &osm.Feature{
			ID: osm.ID(i + 1), Kind: osm.KindBuilding, Footprint: fp, Centroid: c,
		})
	}
	cfg := mesh.DefaultConfig()
	cfg.Density = 1e-12 // exactly MinPerBuilding APs
	return city, mesh.Place(city, cfg)
}

// floodAll is a local flooding policy for engine tests.
type floodAll struct{}

func (floodAll) Name() string { return "floodAll" }
func (floodAll) OnReceive(*Context, int, *packet.Packet, int) Decision {
	return Decision{Rebroadcast: true}
}

// silent never forwards.
type silent struct{}

func (silent) Name() string { return "silent" }
func (silent) OnReceive(*Context, int, *packet.Packet, int) Decision {
	return Decision{}
}

func mkPacket(src, dst int, ttl uint8) *packet.Packet {
	return &packet.Packet{Header: packet.Header{
		TTL: ttl, MsgID: uint64(src)*1000 + uint64(dst),
		Waypoints: []uint32{uint32(src), uint32(dst)},
	}}
}

// run simulates pkt on a fresh Engine and fails the test if the engine
// refuses the run; tests of the refusals themselves call Engine.Run.
func run(t testing.TB, m *mesh.Mesh, city *osm.City, pol Policy, pkt *packet.Packet, cfg Config) Result {
	t.Helper()
	res, err := NewEngine(m, city, pol).Run(pkt, cfg)
	if err != nil {
		t.Fatalf("Engine.Run: %v", err)
	}
	return res
}

func TestFloodAlongChain(t *testing.T) {
	city, m := chainCity(6, 40)
	res := run(t, m, city, floodAll{}, mkPacket(0, 5, 255), DefaultConfig())
	if !res.Delivered {
		t.Fatal("flood should traverse the chain")
	}
	if res.DeliveryHops != 5 {
		t.Errorf("hops = %d, want 5", res.DeliveryHops)
	}
	// Every AP transmits exactly once under flooding with dedup.
	if res.Broadcasts != 6 {
		t.Errorf("broadcasts = %d, want 6", res.Broadcasts)
	}
	if res.APsReached != 6 {
		t.Errorf("reached = %d, want 6", res.APsReached)
	}
	if res.DeliveryTime <= 0 {
		t.Error("delivery time not recorded")
	}
}

func TestSilentPolicyOnlySource(t *testing.T) {
	city, m := chainCity(4, 40)
	res := run(t, m, city, silent{}, mkPacket(0, 3, 255), DefaultConfig())
	if res.Delivered {
		t.Error("silent policy should not deliver across hops")
	}
	if res.Broadcasts != 0 {
		t.Errorf("broadcasts = %d, want 0", res.Broadcasts)
	}
	if res.APsReached != 1 {
		t.Errorf("reached = %d, want 1 (source only)", res.APsReached)
	}
}

func TestSelfDelivery(t *testing.T) {
	city, m := chainCity(3, 40)
	res := run(t, m, city, silent{}, mkPacket(2, 2, 255), DefaultConfig())
	if !res.Delivered || res.DeliveryHops != 0 || res.DeliveryTime != 0 {
		t.Errorf("self delivery = %+v", res)
	}
}

func TestTTLBoundsPropagation(t *testing.T) {
	city, m := chainCity(10, 40)
	// TTL 3: reaches AP 3 (hop 3) whose TTL hits 0 and stops forwarding.
	res := run(t, m, city, floodAll{}, mkPacket(0, 9, 3), DefaultConfig())
	if res.Delivered {
		t.Error("TTL 3 should not reach hop 9")
	}
	if res.APsReached != 4 { // hops 0..3
		t.Errorf("reached = %d, want 4", res.APsReached)
	}
	res = run(t, m, city, floodAll{}, mkPacket(0, 9, 9), DefaultConfig())
	if !res.Delivered {
		t.Error("TTL 9 should exactly reach hop 9")
	}
}

func TestFailedSetBlocks(t *testing.T) {
	city, m := chainCity(5, 40)
	// Fail the middle AP: the chain is cut.
	cfg := DefaultConfig()
	cfg.FailedSet = mesh.NewNodeSet(m.NumAPs()).Add(2)
	res := run(t, m, city, floodAll{}, mkPacket(0, 4, 255), cfg)
	if res.Delivered {
		t.Error("failed midpoint should cut the chain")
	}
	if res.APsReached != 2 { // APs 0 and 1
		t.Errorf("reached = %d, want 2", res.APsReached)
	}
	// Failing the source suppresses everything.
	cfg.FailedSet = mesh.NewNodeSet(m.NumAPs()).Add(0)
	res = run(t, m, city, floodAll{}, mkPacket(0, 4, 255), cfg)
	if res.APsReached != 0 || res.Delivered {
		t.Errorf("failed source: %+v", res)
	}
}

func TestLossyLinks(t *testing.T) {
	city, m := chainCity(8, 40)
	cfg := DefaultConfig()
	cfg.LossProb = 1.0 // every reception lost
	res := run(t, m, city, floodAll{}, mkPacket(0, 7, 255), cfg)
	if res.Delivered || res.APsReached != 1 {
		t.Errorf("total loss: %+v", res)
	}
	// Zero loss is the baseline.
	cfg.LossProb = 0
	if res := run(t, m, city, floodAll{}, mkPacket(0, 7, 255), cfg); !res.Delivered {
		t.Error("lossless flood should deliver")
	}
}

func TestDeterministicRuns(t *testing.T) {
	city, m := chainCity(8, 40)
	cfg := DefaultConfig()
	cfg.LossProb = 0.3
	cfg.Seed = 99
	a := run(t, m, city, floodAll{}, mkPacket(0, 7, 255), cfg)
	b := run(t, m, city, floodAll{}, mkPacket(0, 7, 255), cfg)
	if a.Delivered != b.Delivered || a.Broadcasts != b.Broadcasts ||
		a.Receptions != b.Receptions || a.DeliveryTime != b.DeliveryTime {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestTranscript(t *testing.T) {
	city, m := chainCity(5, 40)
	cfg := DefaultConfig()
	cfg.RecordTranscript = true
	res := run(t, m, city, floodAll{}, mkPacket(0, 4, 255), cfg)
	if len(res.Transcript) != m.NumAPs() {
		t.Fatalf("transcript size = %d", len(res.Transcript))
	}
	for i, rec := range res.Transcript {
		if !rec.Received {
			t.Errorf("AP %d not marked received", i)
		}
		if rec.Hops != i {
			t.Errorf("AP %d hops = %d", i, rec.Hops)
		}
	}
}

func TestInvalidSource(t *testing.T) {
	city, m := chainCity(3, 40)
	res, err := NewEngine(m, city, floodAll{}).Run(mkPacket(99, 2, 255), DefaultConfig())
	if !errors.Is(err, ErrNoSourceAP) {
		t.Errorf("invalid source: err = %v, want ErrNoSourceAP", err)
	}
	if res.SourceAP != -1 || res.Delivered {
		t.Errorf("invalid source: %+v", res)
	}
}

func TestMaxEventsCap(t *testing.T) {
	city, m := chainCity(10, 40)
	cfg := DefaultConfig()
	cfg.MaxEvents = 3
	res := run(t, m, city, floodAll{}, mkPacket(0, 9, 255), cfg)
	if res.Delivered {
		t.Error("3-event budget cannot deliver over 9 hops")
	}
}

func TestOverheadMetric(t *testing.T) {
	r := Result{Broadcasts: 26}
	if o := r.Overhead(2); o != 13 {
		t.Errorf("Overhead = %v, want 13", o)
	}
	if o := r.Overhead(0); o != 0 {
		t.Errorf("Overhead(0) = %v", o)
	}
}

func TestUnicastDecision(t *testing.T) {
	city, m := chainCity(4, 40)
	// Policy that unicasts to the next AP id (a static source route).
	pol := unicastNext{}
	res := run(t, m, city, pol, mkPacket(0, 3, 255), DefaultConfig())
	if !res.Delivered {
		t.Fatal("unicast chain should deliver")
	}
	// Exactly 3 transmissions: 0->1, 1->2, 2->3.
	if res.Broadcasts != 3 {
		t.Errorf("unicasts = %d, want 3", res.Broadcasts)
	}
}

type unicastNext struct{}

func (unicastNext) Name() string { return "unicastNext" }
func (unicastNext) OnReceive(ctx *Context, ap int, pkt *packet.Packet, from int) Decision {
	if ap+1 < ctx.Mesh.NumAPs() {
		return Decision{NextHops: []int32{int32(ap + 1)}}
	}
	return Decision{}
}

func BenchmarkRunFloodChain(b *testing.B) {
	city, m := chainCity(200, 40)
	cfg := DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := run(b, m, city, floodAll{}, mkPacket(0, 199, 255), cfg)
		if !res.Delivered {
			b.Fatal("chain flood failed")
		}
	}
}

func BenchmarkRunPathLossChain(b *testing.B) {
	city, m := chainCity(200, 30)
	cfg := DefaultConfig()
	cfg.Radio = DefaultPathLoss()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		run(b, m, city, floodAll{}, mkPacket(0, 199, 255), cfg)
	}
}
