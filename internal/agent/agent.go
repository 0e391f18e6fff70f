// Package agent implements the "small software agent" the paper proposes
// running on each Wi-Fi AP (§3): receive a CityMesh frame, suppress
// duplicates, rebroadcast if and only if the AP lies inside a conduit
// reconstructed from the packet header, and store messages addressed to
// postboxes this AP hosts.
//
// An Agent is transport-agnostic: the in-process transport wires agents
// together with the mesh adjacency for tests, and the UDP transport runs
// real sockets on localhost — the repository's small-scale stand-in for the
// paper's proposed OpenWrt deployment.
package agent

import (
	"fmt"
	"sync"
	"time"

	"citymesh/internal/fifo"
	"citymesh/internal/fwd"
	"citymesh/internal/geo"
	"citymesh/internal/osm"
	"citymesh/internal/packet"
	"citymesh/internal/postbox"
)

// Transport delivers encoded frames from this agent to its radio neighbors.
// Implementations must be safe for concurrent Broadcast calls.
type Transport interface {
	// Broadcast sends the frame to every neighbor.
	Broadcast(frame []byte) error
	// Close releases transport resources.
	Close() error
}

// Config describes one AP agent.
type Config struct {
	// ID is the agent's identifier (diagnostics only).
	ID int
	// Pos is the AP's location; the conduit test runs against it.
	Pos geo.Point
	// Building is the dense building index hosting this AP, or -1 for a
	// relay AP outside any building.
	Building int
	// City is the agent's cached building map.
	City *osm.City
	// DedupCap bounds the duplicate-suppression cache (number of message
	// IDs remembered); 0 means DefaultDedupCap. APs run for months on
	// 32 MB routers — the cache must not grow with traffic.
	DedupCap int
	// Store optionally supplies the postbox store (e.g. one opened with
	// postbox.OpenDir for crash-safe persistence); nil creates a fresh
	// in-memory store.
	Store *postbox.Store
	// NeighborRate limits frames/sec accepted per identified source
	// (frames arriving via HandleFrameFrom with a non-empty src). 0 means
	// DefaultNeighborRate; negative disables per-source limiting.
	NeighborRate float64
	// NeighborBurst is the per-source burst allowance; 0 derives 2x rate.
	NeighborBurst float64
	// InboundBytesPerSec caps the agent's total inbound byte budget across
	// all sources, with a burst of twice the rate; 0 disables the global
	// budget.
	InboundBytesPerSec float64
	// MaxTTL, when non-zero, rejects frames whose as-received TTL exceeds
	// it (fwd.ReasonTTLInflated — a Byzantine TTL-resetter upstream). Set
	// it to the deployment's network TTL.
	MaxTTL uint8
	// StrictSanity enables the kernel's cheap header-shape rejection
	// (fwd.ReasonBadConduit): waypoint indices no honest sender can
	// produce against this agent's map drop the frame before it claims a
	// dedup slot.
	StrictSanity bool
	// Clock is injectable for deterministic rate-limit and liveness tests;
	// nil means time.Now.
	Clock func() time.Time
}

// DefaultDedupCap is the default dedup cache bound: 64k message IDs,
// hours of city-scale traffic, yet fixed-size. A set grows with the IDs it
// holds, so an idle agent holds almost nothing; a full one holds 1.5 MiB
// (a 1 MiB table of 128k slots plus the 512 KiB insertion ring): the
// HeapAlloc growth across creating a set and 64k inserts, measured after
// runtime.GC with go1.24 on linux/amd64.
const DefaultDedupCap = 64 << 10

// maxNeighborEntries bounds the last-seen neighbor table so forged beacon
// sources cannot grow it without bound.
const maxNeighborEntries = 1024

// Stats counts an agent's activity. Dropped is the total of the per-cause
// DroppedX counters; Duplicates and OutOfConduit are tracked separately
// because a duplicate or out-of-conduit frame is correct mesh behavior
// (flood overlap), not a defect.
type Stats struct {
	Received    int
	Duplicates  int
	Rebroadcast int
	Stored      int
	Dropped     int

	// Per-cause drop breakdown (sums to Dropped).
	DroppedMalformed   int // failed decode: bad CRC/magic/version/structure
	DroppedOversized   int // exceeded a validation budget (packet.Oversize)
	DroppedRateLimited int // per-source rate or global byte budget exceeded
	DroppedReplayed    int // same (source, message ID) pair seen before: a replay storm
	DroppedTampered    int // failed kernel sanity: inflated TTL or corrupt conduit bytes

	// OutOfConduit counts received frames not rebroadcast because this AP
	// lies outside the packet's conduit — the paper's core suppression.
	OutOfConduit int
	// Decisions is the forwarding kernel's per-reason verdict tally — the
	// same counters a sim run records in sim.Result.Decisions, so a live
	// agent's behavior is directly comparable to its simulated twin.
	Decisions fwd.Counts
	// PanicsRecovered counts frame-handler panics absorbed by the runtime
	// supervisor; any nonzero value is a bug worth a report, but it must
	// not kill a deployed agent.
	PanicsRecovered int

	// Liveness beacon activity.
	HellosSent     int
	HellosReceived int
	// Neighbors is the last-seen table built from HELLO beacons: source
	// key (transport address, or "agent-<id>" when the transport does not
	// identify sources) to the agent-clock time of the last beacon.
	Neighbors map[string]time.Time
}

// Agent is one AP's CityMesh runtime.
type Agent struct {
	cfg     Config
	tr      Transport
	store   *postbox.Store
	limiter *limiter
	clock   func() time.Time

	// kernel is the shared forwarding engine (internal/fwd) — the same
	// code path the simulator's CityMesh policy runs. The agent adds its
	// armor (rate limits, drop counters, panic recovery) around it but
	// never re-implements the conduit/TTL/deliver decision.
	kernel *fwd.Kernel
	// view is cfg.City as the kernel's map view (nil when no map was
	// configured, which the kernel treats as an unresolvable route).
	view fwd.MapView
	self fwd.Self

	mu sync.Mutex
	// seen is the dedup set of message IDs. It forgets the oldest first once
	// full, which matches the traffic pattern: a duplicate of a message
	// arrives within its flood wave, not hours later.
	seen *fifo.Map[struct{}]
	// pairSeen remembers (source, message ID) pairs. A correct neighbor
	// broadcasts a given message at most once, so a repeat pair is a
	// replayed frame (dropped, counted per cause), while the same message
	// arriving from *different* neighbors stays a benign flood-overlap
	// duplicate. Same FIFO bound as the dedup cache.
	pairSeen  *fifo.Map[struct{}]
	stats     Stats
	neighbors map[string]time.Time
	// neighborOrder bounds neighbors, forgetting the first-seen key first;
	// it is made with the first neighbor.
	neighborOrder *keyRing
	// onDeliver fires when a packet for this agent's building arrives.
	onDeliver func(*packet.Packet)

	beaconStop chan struct{}
	beaconWG   sync.WaitGroup
}

// New creates an agent. The transport may be nil until Attach.
func New(cfg Config, tr Transport) *Agent {
	store := cfg.Store
	if store == nil {
		store = postbox.NewStore()
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	rate := cfg.NeighborRate
	if rate == 0 {
		rate = DefaultNeighborRate
	}
	dedupCap := cfg.DedupCap
	if dedupCap <= 0 {
		dedupCap = DefaultDedupCap
	}
	a := &Agent{
		cfg:     cfg,
		tr:      tr,
		store:   store,
		clock:   clock,
		limiter: newLimiter(rate, cfg.NeighborBurst, cfg.InboundBytesPerSec),
		kernel: fwd.NewKernel(fwd.Options{
			MaxTTL:       cfg.MaxTTL,
			StrictSanity: cfg.StrictSanity,
		}),
		self:      fwd.Self{Pos: cfg.Pos, Building: cfg.Building},
		seen:      fifo.New[struct{}](dedupCap),
		pairSeen:  fifo.New[struct{}](dedupCap),
		neighbors: make(map[string]time.Time),
	}
	if cfg.City != nil {
		a.view = cfg.City
	}
	return a
}

// Attach sets the transport after construction (the in-process hub needs
// the agent before it can build the transport).
func (a *Agent) Attach(tr Transport) {
	a.mu.Lock()
	a.tr = tr
	a.mu.Unlock()
}

// transport snapshots the transport under the lock.
func (a *Agent) transport() Transport {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.tr
}

// Store exposes the agent's postbox store.
func (a *Agent) Store() *postbox.Store { return a.store }

// OnDeliver registers a delivery callback, invoked (synchronously, off the
// agent lock) whenever a packet destined to this agent's building arrives.
func (a *Agent) OnDeliver(fn func(*packet.Packet)) {
	a.mu.Lock()
	a.onDeliver = fn
	a.mu.Unlock()
}

// Stats returns a snapshot of the agent's counters. The snapshot is a deep
// copy (including the neighbor table), so it is race-free against
// concurrent HandleFrame calls.
func (a *Agent) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := a.stats
	st.Decisions = a.kernel.Counts()
	st.Neighbors = make(map[string]time.Time, len(a.neighbors))
	for k, v := range a.neighbors {
		st.Neighbors[k] = v
	}
	return st
}

// NeighborsSince returns the keys of neighbors whose last HELLO beacon is
// no older than maxAge (maxAge <= 0 returns all known neighbors).
func (a *Agent) NeighborsSince(maxAge time.Duration) []string {
	now := a.clock()
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []string
	for k, v := range a.neighbors {
		if maxAge <= 0 || now.Sub(v) <= maxAge {
			out = append(out, k)
		}
	}
	return out
}

// Inject submits a locally originated packet to the network: the paper's
// step where Alice's device hands the message to the AP it associates with.
// The injecting AP always transmits (the kernel's first-hop rule).
func (a *Agent) Inject(pkt *packet.Packet) error {
	frame, err := pkt.Encode(nil)
	if err != nil {
		return fmt.Errorf("agent %d: inject: %w", a.cfg.ID, err)
	}
	v := a.kernel.Decide(a.view, &pkt.Header, a.self, true)
	a.mu.Lock()
	a.seen.Add(pkt.Header.MsgID)
	a.stats.Rebroadcast++
	a.mu.Unlock()
	if v.Deliver {
		a.deliver(pkt)
	}
	tr := a.transport()
	if tr == nil {
		return fmt.Errorf("agent %d: no transport", a.cfg.ID)
	}
	return tr.Broadcast(frame)
}

// HandleFrame processes a frame from an unidentified source. Transports
// that know the sender should call HandleFrameFrom so per-source rate
// limiting applies.
func (a *Agent) HandleFrame(frame []byte) { a.HandleFrameFrom("", frame) }

// HandleFrameFrom processes one received frame: budget-check, decode,
// dedup, deliver or store, and rebroadcast when inside the conduit. It is
// the Transport's receive callback. The frame is untrusted input; every
// rejection increments a per-cause drop counter, and a panic anywhere in
// the handling path is absorbed (counted in PanicsRecovered) so a hostile
// frame can never kill the agent process.
//
// HandleFrameFrom neither keeps nor modifies frame after it returns: a
// delivered packet is a copy, and a rebroadcast is encoded afresh. So a
// transport may reuse its receive buffer, and hand one frame to many
// agents. A duplicate, replayed or dropped frame allocates nothing.
func (a *Agent) HandleFrameFrom(src string, frame []byte) {
	defer func() {
		if r := recover(); r != nil {
			// The frame's counters stand wherever processing reached; the
			// recovery itself only records that a panic was absorbed.
			a.mu.Lock()
			a.stats.PanicsRecovered++
			a.mu.Unlock()
		}
	}()
	now := a.clock()

	// Liveness beacons bypass the packet path (and the rate limiter: they
	// are tiny, fixed-size, and the last-seen table is bounded).
	if packet.IsHello(frame) {
		hello, err := packet.DecodeHello(frame)
		if err != nil {
			a.drop(func(st *Stats) { st.DroppedMalformed++ })
			return
		}
		key := src
		if key == "" {
			key = fmt.Sprintf("agent-%d", hello.ID)
		}
		a.mu.Lock()
		a.stats.HellosReceived++
		a.noteNeighborLocked(key, now)
		a.mu.Unlock()
		return
	}

	// Frames too large to ever decode are rejected before they charge the
	// byte budget; everything else passes the overload budgets before the
	// (comparatively expensive) CRC + decode, so a frame storm costs only
	// a map lookup per drop.
	if len(frame) > packet.MaxFrameLen {
		a.drop(func(st *Stats) { st.DroppedOversized++ })
		return
	}
	if src != "" && !a.limiter.allowSource(src, now) {
		a.drop(func(st *Stats) { st.DroppedRateLimited++ })
		return
	}
	if !a.limiter.allowBytes(len(frame), now) {
		a.drop(func(st *Stats) { st.DroppedRateLimited++ })
		return
	}

	var wps [packet.MaxWaypoints]uint32
	pkt, err := packet.DecodeTo(frame, wps[:])
	if err != nil {
		if packet.Oversize(err) {
			a.drop(func(st *Stats) { st.DroppedOversized++ })
		} else {
			a.drop(func(st *Stats) { st.DroppedMalformed++ })
		}
		return
	}

	// Kernel sanity runs before the frame can claim a dedup slot: a
	// corruptor must not be able to poison the dedup cache with a tampered
	// copy and thereby suppress the genuine message behind it.
	if _, ok := a.kernel.Sanity(a.view, &pkt.Header, false); !ok {
		a.drop(func(st *Stats) { st.DroppedTampered++ })
		return
	}

	a.mu.Lock()
	// A repeat (source, message ID) pair is a replay: a correct neighbor
	// broadcasts each message at most once. Checked before Received so a
	// replay storm lands entirely in the drop partition.
	if src != "" && a.pairSeen.Add(pairID(src, pkt.Header.MsgID)) {
		a.stats.Dropped++
		a.stats.DroppedReplayed++
		a.mu.Unlock()
		return
	}
	a.stats.Received++
	if src != "" {
		a.noteNeighborLocked(src, now)
	}
	if a.seen.Add(pkt.Header.MsgID) {
		a.stats.Duplicates++
		a.mu.Unlock()
		return
	}
	a.mu.Unlock()

	// The deliver/forward verdict is the shared kernel's — the identical
	// code path the simulator's CityMesh policy evaluates — so what the
	// experiments measure is byte-for-byte what this agent executes.
	v := a.kernel.Decide(a.view, &pkt.Header, a.self, false)
	if v.Deliver {
		// pkt aliases frame and the stack: delivery is the one place a
		// packet outlives this call, so it gets its own copy.
		a.deliver(pkt.Clone())
	}
	if !v.Rebroadcast {
		if v.Reason == fwd.ReasonOutOfConduit {
			a.mu.Lock()
			a.stats.OutOfConduit++
			a.mu.Unlock()
		}
		return
	}
	pkt.Header.TTL--
	out, err := pkt.Encode(make([]byte, 0, len(frame)))
	if err != nil {
		return
	}
	a.mu.Lock()
	a.stats.Rebroadcast++
	tr := a.tr
	a.mu.Unlock()
	if tr != nil {
		_ = tr.Broadcast(out)
	}
}

// pairID folds a source key and message ID into the replay pair-set key:
// FNV-1a over the source, mixed with the golden-ratio-scrambled message ID.
// A 64-bit collision misclassifying a fresh frame as a replay is vanishingly
// rare next to radio loss.
func pairID(src string, msgID uint64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(src); i++ {
		h ^= uint64(src[i])
		h *= 1099511628211
	}
	return h ^ (msgID * 0x9E3779B97F4A7C15)
}

// drop records one dropped frame with its cause.
func (a *Agent) drop(cause func(*Stats)) {
	a.mu.Lock()
	a.stats.Dropped++
	cause(&a.stats)
	a.mu.Unlock()
}

// noteNeighborLocked updates the last-seen table, forgetting the
// first-seen neighbor at capacity; called with a.mu held.
func (a *Agent) noteNeighborLocked(key string, now time.Time) {
	if _, ok := a.neighbors[key]; !ok {
		if a.neighborOrder == nil {
			a.neighborOrder = &keyRing{max: maxNeighborEntries}
		}
		if old, full := a.neighborOrder.add(key); full {
			delete(a.neighbors, old)
		}
	}
	a.neighbors[key] = now
}

// deliver hands a kernel-approved packet to the local application: the
// callback fires for every delivery (destination building or geocast
// area), while postbox storage additionally requires that the packet is
// addressed to this agent's building.
func (a *Agent) deliver(pkt *packet.Packet) {
	a.mu.Lock()
	cb := a.onDeliver
	if pkt.Header.Flags&packet.FlagPostbox != 0 &&
		a.cfg.Building >= 0 && len(pkt.Header.Waypoints) > 0 &&
		pkt.Header.Dst() == a.cfg.Building {
		var addr postbox.Address
		copy(addr[:], pkt.Header.Postbox[:])
		urgent := pkt.Header.Flags&packet.FlagUrgent != 0
		a.mu.Unlock()
		a.store.Put(addr, pkt.Payload, urgent)
		a.mu.Lock()
		a.stats.Stored++
	}
	a.mu.Unlock()
	if cb != nil {
		cb(pkt)
	}
}

// Close stops beacons and shuts the transport down. The postbox store is
// not closed: the caller that supplied it (Config.Store) owns its
// lifecycle, and the default in-memory store has nothing to release.
func (a *Agent) Close() error {
	a.StopBeacons()
	tr := a.transport()
	if tr == nil {
		return nil
	}
	return tr.Close()
}

// Building returns the agent's building index.
func (a *Agent) Building() int { return a.cfg.Building }
