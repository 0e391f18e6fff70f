// The reusable metro-scale simulation core.
//
// An Engine is constructed once per (mesh, city, policy) and amortizes
// everything a one-shot run would rebuild per call: struct-of-arrays AP
// state (positions and building ids copied out of the mesh's
// array-of-structs), the default radio model, and a pool of per-run
// scratch — the seen/hops/ttl/lastArrival slices, the event-heap backing
// array, the reception arena, the rate gate's buckets and the RNG — reused
// across runs instead of reallocated.
//
// A transmission's receptions are one heap event, not one each: the
// receivers that pass the radio and loss coins are appended to an arena on
// the scratch and a single evReceive event carries their window. The batch
// takes the sequence number the first reception would have had and reserves
// one for every other, and each reception still counts against MaxEvents, so
// the order in which receptions, transmissions and RNG draws happen is the
// one a queue of single receptions produces (DESIGN.md §11 has the
// argument).
//
// Determinism is unaffected by pooling: every run fully re-seeds the
// pooled RNG from Config.Seed, every scratch slice is cleared (or, for
// lastArrival, refilled) before use, and the event heap orders events by
// the strict total order (t, seq), so the pop sequence — and therefore
// every RNG draw — is independent of which pooled buffers a run happens
// to receive. A warm Engine.Run is byte-identical to a cold one.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"citymesh/internal/fwd"
	"citymesh/internal/geo"
	"citymesh/internal/mesh"
	"citymesh/internal/osm"
	"citymesh/internal/packet"
)

// Engine is a reusable simulator for one (mesh, city, policy) triple.
// Construct it once with NewEngine and call Run per packet; runs may be
// issued concurrently (each takes its own scratch from an internal pool),
// provided the policy itself tolerates concurrent OnReceive calls — the
// kernel-backed CityMesh policy does.
type Engine struct {
	mesh *mesh.Mesh
	city *osm.City
	pol  Policy

	numAPs int
	// Struct-of-arrays AP state: the hot loops touch positions and
	// building ids and nothing else, so they get dense arrays instead of
	// strided loads through []mesh.AP.
	pos      []geo.Point
	building []int32
	// adj is the mesh's adjacency table: row i is what a grid query of the
	// mesh range around AP i returns, in its order.
	adj [][]int32

	defaultRadio RadioModel

	// spare holds the last released scratch outside the pool. A sync.Pool
	// Get misses when the caller's goroutine has moved to another P since
	// the Put, and the pool drops what sits idle across two GCs; each miss
	// rebuilds the per-AP slices (1.9 MB on the 10^5-AP metro preset). A
	// serial caller always finds the spare; concurrent runs overflow into
	// the pool.
	spare atomic.Pointer[scratch]
	pool  sync.Pool // of *scratch
}

// NewEngine precomputes the per-mesh state for repeated runs. pol is the
// default forwarding policy used by Run; RunPolicy overrides it per call.
func NewEngine(m *mesh.Mesh, city *osm.City, pol Policy) *Engine {
	n := m.NumAPs()
	e := &Engine{
		mesh:         m,
		city:         city,
		pol:          pol,
		numAPs:       n,
		pos:          make([]geo.Point, n),
		building:     make([]int32, n),
		adj:          m.Adjacency(),
		defaultRadio: UnitDisk{Range: m.Cfg.Range},
	}
	for i := range m.APs {
		e.pos[i] = m.APs[i].Pos
		e.building[i] = int32(m.APs[i].Building)
	}
	e.pool.New = func() any { return newScratch(e) }
	return e
}

// Mesh returns the engine's mesh.
func (e *Engine) Mesh() *mesh.Mesh { return e.mesh }

// City returns the engine's city map.
func (e *Engine) City() *osm.City { return e.city }

// Run simulates the propagation of pkt, injected at the first AP of the
// source building, until the event queue drains or Config.MaxEvents is
// hit, using the engine's default policy. The destination building is
// taken from the packet header. It returns a validation sentinel (see
// validate.go) for a physically meaningless Config, or ErrNoSourceAP when
// the source building is out of range or hosts no AP; either way nothing
// is simulated and the Result carries SourceAP == -1.
func (e *Engine) Run(pkt *packet.Packet, cfg Config) (Result, error) {
	return e.RunPolicy(e.pol, pkt, cfg)
}

// RunPolicy is Run with a per-call policy override — for harnesses that
// sweep policies (baseline comparisons, the flood rung) over one mesh
// without rebuilding engines.
func (e *Engine) RunPolicy(pol Policy, pkt *packet.Packet, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{SourceAP: -1}, err
	}
	src := pkt.Header.Src()
	if src < 0 || src >= e.city.NumBuildings() || len(e.mesh.APsInBuilding(src)) == 0 {
		return Result{SourceAP: -1}, fmt.Errorf("%w (source building %d)", ErrNoSourceAP, src)
	}
	s := e.spare.Swap(nil)
	if s == nil {
		s = e.pool.Get().(*scratch)
	}
	s.reset(pol, pkt, cfg)
	res := s.run()
	s.release()
	if !e.spare.CompareAndSwap(nil, s) {
		e.pool.Put(s)
	}
	return res, nil
}

// scratch is one run's worth of mutable state, pooled and reused across
// runs. Every field is either re-derived from the Config in reset or
// cleared there; nothing observable survives from the previous run.
type scratch struct {
	eng *Engine

	// Per-run bindings.
	cfg    Config
	pol    Policy
	pkt    *packet.Packet
	radio  RadioModel
	dst    int
	numAPs int
	total  int // APs + mobile carriers
	advOn  bool
	// rows is set when the radio's reach is exactly the mesh range: a static
	// AP's broadcast then visits its adjacency row instead of querying the
	// grid. Mobile carriers and longer- or shorter-range radios use the grid.
	rows bool

	src rand.Source
	rng *rand.Rand
	ctx Context

	seen        []bool
	hops        []int
	ttl         []int
	lastArrival []float64 // refilled with -Inf only when CollisionWindow > 0
	tainted     []bool    // sized only when an Adversary is declared

	// events is the binary-heap backing array, ordered by (t, seq).
	events []event
	seq    int64
	// arena holds the receivers of every queued reception batch; an
	// evReceive event addresses its window by offset, so growth may move it.
	// It is emptied whenever no batch is queued, which bounds it by the
	// receptions in flight, not by the receptions of the whole run.
	arena   []int32
	batches int // evReceive events in the heap

	gate   rateGate
	forged []forgedMsg

	res Result

	// Per-transmit state read by the pre-bound fan-out callbacks, so a
	// transmission allocates no closure.
	txArrival float64
	txPos     geo.Point
	txAP      int

	visitReal   func(n int, p geo.Point) bool
	visitForged func(n int, p geo.Point) bool
}

func newScratch(e *Engine) *scratch {
	s := &scratch{eng: e}
	s.src = rand.NewSource(1)
	s.rng = rand.New(s.src)
	s.visitReal = func(n int, p geo.Point) bool {
		if n == s.txAP {
			return true
		}
		if s.down(n, s.txArrival) {
			s.res.LostToDeadAP++
			return true
		}
		if !receives(s.radio, s.txPos.Dist(p), s.rng) {
			s.res.LostToRange++
			return true
		}
		if s.cfg.LossProb > 0 && s.rng.Float64() < s.cfg.LossProb {
			s.res.LostToLoss++
			return true
		}
		s.arena = append(s.arena, int32(n))
		return true
	}
	// Forged-message waves take the same radio and loss coins but are kept
	// out of the real packet's loss diagnostics.
	s.visitForged = func(n int, p geo.Point) bool {
		if n == s.txAP {
			return true
		}
		if s.down(n, s.txArrival) {
			return true
		}
		if !receives(s.radio, s.txPos.Dist(p), s.rng) {
			return true
		}
		if s.cfg.LossProb > 0 && s.rng.Float64() < s.cfg.LossProb {
			return true
		}
		s.arena = append(s.arena, int32(n))
		return true
	}
	return s
}

// reset rebinds the scratch to one run's inputs and clears all carried
// state. The caller has already validated cfg and the source building.
func (s *scratch) reset(pol Policy, pkt *packet.Packet, cfg Config) {
	e := s.eng
	if cfg.MaxEvents <= 0 {
		cfg.MaxEvents = 5_000_000
	}
	s.cfg = cfg
	s.pol = pol
	s.pkt = pkt
	s.radio = cfg.Radio
	if s.radio == nil {
		s.radio = e.defaultRadio
	}
	s.rows = s.radio.MaxRange() == e.mesh.Cfg.Range
	s.dst = pkt.Header.Dst()
	s.numAPs = e.numAPs
	s.total = e.numAPs + len(cfg.Mobiles)
	s.advOn = cfg.Adversary != nil

	s.src.Seed(cfg.Seed)
	s.ctx = Context{City: e.city, Mesh: e.mesh, RNG: s.rng, Dst: s.dst}

	s.seen = resetBools(s.seen, s.total)
	s.hops = resetInts(s.hops, s.total)
	s.ttl = resetInts(s.ttl, s.total)
	if cfg.CollisionWindow > 0 {
		if cap(s.lastArrival) < s.total {
			s.lastArrival = make([]float64, s.total)
		}
		s.lastArrival = s.lastArrival[:s.total]
		negInf := math.Inf(-1)
		for i := range s.lastArrival {
			s.lastArrival[i] = negInf
		}
	}
	if s.advOn {
		s.tainted = resetBools(s.tainted, s.total)
	}
	s.events = s.events[:0]
	s.seq = 0
	s.arena, s.batches = s.arena[:0], 0
	s.forged = s.forged[:0]
	s.gate.reset(cfg.Defense)

	s.res = Result{SourceAP: -1}
}

// release drops references the pooled scratch must not pin between runs
// (the caller's Config sets, packet, policy, and the returned Transcript).
func (s *scratch) release() {
	s.cfg = Config{}
	s.pol = nil
	s.pkt = nil
	s.radio = nil
	for i := range s.forged {
		s.forged[i] = forgedMsg{}
	}
	s.forged = s.forged[:0]
	s.res = Result{}
	s.ctx = Context{}
}

// down folds the static failure set and the time-varying schedule. Mobile
// carriers never fail: a vehicle drives out of the flood zone rather than
// drowning with it.
func (s *scratch) down(node int, t float64) bool {
	if node >= s.numAPs {
		return false
	}
	if s.cfg.FailedSet.Contains(node) {
		return true
	}
	return s.cfg.Schedule != nil && s.cfg.Schedule.Down(node, t)
}

func (s *scratch) behavior(node int) APBehavior {
	if node >= s.numAPs {
		return BehaviorHonest // carriers are never Byzantine
	}
	return s.cfg.Adversary.BehaviorOf(node)
}

func (s *scratch) isTainted(node int) bool { return s.advOn && s.tainted[node] }

// nodePos resolves a node's position at time t: APs are static, a carrier
// is wherever its path has taken it.
func (s *scratch) nodePos(node int, t float64) geo.Point {
	if node < s.numAPs {
		return s.eng.pos[node]
	}
	return s.cfg.Mobiles[node-s.numAPs].Path.PosAt(t)
}

func (s *scratch) probe(kind ProbeKind, node, from int, t float64, ttl int) {
	if s.cfg.Probe != nil {
		s.cfg.Probe(ProbeEvent{Kind: kind, Node: node, From: from, T: t, TTL: ttl})
	}
}

// push enqueues with the next FIFO sequence number. The heap is a plain
// binary min-heap over (t, seq); because that comparator is a strict
// total order, the pop sequence is fully determined by the push sequence
// — heap internals cannot perturb determinism.
func (s *scratch) push(ev event) {
	ev.seq = s.seq
	s.seq++
	h := append(s.events, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	s.events = h
}

func (s *scratch) pop() event {
	h := s.events
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && eventLess(h[l], h[m]) {
			m = l
		}
		if r < n && eventLess(h[r], h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	s.events = h
	return top
}

func eventLess(a, b event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// run executes the event loop: the defense-stack ordering, the forged-
// injection phase draws and the jitter/radio/loss draw sequence are fixed,
// so a warm pooled run is byte-identical to a cold one (and to
// testdata/engine_golden.json).
func (s *scratch) run() Result {
	e := s.eng
	cfg := &s.cfg

	// Kernel-backed policies expose decision counters; snapshot before and
	// after so Result.Decisions covers exactly this run.
	dc, hasDC := s.pol.(DecisionCounter)
	var dcBefore fwd.Counts
	if hasDC {
		dcBefore = dc.DecisionCounts()
	}

	srcAP := int(e.mesh.APsInBuilding(s.pkt.Header.Src())[0])
	s.res.SourceAP = srcAP
	if cfg.RecordTranscript {
		s.res.Transcript = make([]APRecord, s.numAPs)
	}

	// Forged-traffic injection: spoofers and flooders start their own
	// message waves on a fixed cadence (phase-jittered per injector) until
	// the horizon. Scheduled before the source injection so forged state
	// indices are stable regardless of how the real wave unfolds.
	if adv := cfg.Adversary; adv != nil {
		var injectors []int
		for ap, b := range adv.Behaviors {
			if (b == BehaviorSpoofer || b == BehaviorFlooder) && ap >= 0 && ap < s.numAPs {
				injectors = append(injectors, ap)
			}
		}
		sort.Ints(injectors) // map order must not leak into the event stream
		for _, ap := range injectors {
			spoof := adv.Behaviors[ap] == BehaviorSpoofer
			iv := 1 / adv.injectRate()
			for ft := s.rng.Float64() * iv; ft <= adv.injectHorizon(); ft += iv {
				s.forged = append(s.forged, forgedMsg{
					spoof:  spoof,
					radius: adv.spoofRadius(),
					center: e.pos[ap],
					ttl:    map[int]int{ap: adv.forgedTTL()},
				})
				s.push(event{t: ft, kind: evTransmit, ap: int32(ap), msg: int32(len(s.forged))})
			}
		}
	}

	// Inject at the source.
	if !s.down(srcAP, 0) {
		s.deliver(srcAP, -1, 0)
	}

	events := 0
loop:
	for len(s.events) > 0 && events < cfg.MaxEvents {
		ev := s.pop()
		switch ev.kind {
		case evTransmit:
			events++
			s.onTransmit(ev)
		case evUnicast:
			events++
			s.onUnicast(ev)
		case evReceive:
			// Each reception of the batch is an event of its own to
			// MaxEvents, so the cap can fall between two of them. Delivering
			// never transmits, so the arena does not move under the window.
			from := int(ev.ap)
			for _, ap := range s.arena[ev.off : ev.off+ev.n] {
				if events == cfg.MaxEvents {
					break loop
				}
				events++
				if ev.msg > 0 {
					s.deliverForged(int(ap), from, int(ev.msg), ev.t)
				} else {
					s.deliver(int(ap), from, ev.t)
				}
			}
			if s.batches--; s.batches == 0 {
				s.arena = s.arena[:0]
			}
		}
	}
	if hasDC {
		s.res.Decisions = dc.DecisionCounts().Sub(dcBefore)
	}
	return s.res
}

// deliver marks a reception of the real packet at node ap.
func (s *scratch) deliver(ap, from int, t float64) {
	cfg := &s.cfg
	res := &s.res
	// Receiver-side defense stack, applied to frames off the air (not the
	// source's own injection): rate gate, TTL sanity, integrity.
	if from >= 0 {
		if s.gate.on && !s.gate.allow(ap, from, t) {
			res.RejectedRateLimited++
			return
		}
		if cfg.Defense.MaxTTL > 0 && s.ttl[from] > int(cfg.Defense.MaxTTL) {
			res.RejectedTTL++
			return
		}
		if cfg.Defense.TamperCheck && s.isTainted(from) {
			res.RejectedTampered++
			return
		}
	}
	// Interference approximation: a frame arriving hard on the heels of
	// another at the same radio is lost in the collision.
	if cfg.CollisionWindow > 0 && from >= 0 {
		collided := t-s.lastArrival[ap] < cfg.CollisionWindow
		s.lastArrival[ap] = t
		if collided {
			res.LostToCollision++
			return
		}
	}
	res.Receptions++
	if s.seen[ap] {
		return
	}
	s.seen[ap] = true
	if from >= 0 {
		s.hops[ap] = s.hops[from] + 1
		s.ttl[ap] = s.ttl[from] - 1
		if s.isTainted(from) {
			s.tainted[ap] = true
		}
	} else {
		s.hops[ap] = 0
		s.ttl[ap] = int(s.pkt.Header.TTL)
	}
	beh := s.behavior(ap)
	switch beh {
	case BehaviorTTLReset:
		// The resetter rewrites its stored TTL upward; every frame it
		// forwards carries the inflated value, which is exactly what the
		// probe stream (and Defense.MaxTTL downstream) will see.
		s.ttl[ap] = cfg.Adversary.resetTTL()
	case BehaviorCorruptor:
		s.tainted[ap] = true
	}
	if s.isTainted(ap) {
		res.TaintedAccepts++
	}
	s.probe(ProbeAccept, ap, from, t, s.ttl[ap])
	if ap >= s.numAPs {
		// Mobile carrier pickup: store the packet and start the periodic
		// carry-and-rebroadcast chain. Carriers bypass the Policy — they
		// are not APs and know nothing about the map.
		res.MobilesReached++
		if s.ttl[ap] > 0 {
			mb := cfg.Mobiles[ap-s.numAPs]
			if t <= mb.horizon() {
				s.push(event{t: t + cfg.TxDelay + s.rng.Float64()*cfg.JitterMax, kind: evTransmit, ap: int32(ap)})
			}
		}
		return
	}
	res.APsReached++
	if cfg.RecordTranscript {
		res.Transcript[ap].Received = true
		res.Transcript[ap].ReceiveTime = t
		res.Transcript[ap].Hops = s.hops[ap]
	}
	if cfg.BlackholeSet.Contains(ap) {
		// Compromised node: consume silently; no delivery, no forward.
		return
	}
	if int(s.eng.building[ap]) == s.dst {
		switch {
		case beh != BehaviorHonest:
			// The packet reached the destination building, but only a liar
			// holds it: no delivery credit.
			res.CompromisedDeliveries++
		case s.isTainted(ap):
			// An honest destination AP accepted the corrupted copy — and
			// its dedup now suppresses the genuine one.
			res.TaintedDeliveries++
		default:
			s.probe(ProbeDeliver, ap, -1, t, 0)
			if !res.Delivered {
				res.Delivered = true
				res.DeliveryTime = t
				res.DeliveryHops = s.hops[ap]
			}
		}
	}
	if beh == BehaviorBlackhole {
		// Byzantine consume: silently eats the frame after (correctly)
		// being counted as a compromised destination above.
		return
	}
	if s.ttl[ap] <= 0 {
		return
	}
	if beh == BehaviorReplayer {
		// Schedule the stale-frame storm: retransmissions of the stored
		// copy (frozen TTL, no decrement) until the horizon.
		iv := cfg.Adversary.replayInterval()
		for rt := t + iv; rt <= cfg.Adversary.replayHorizon(); rt += iv {
			s.push(event{t: rt, kind: evTransmit, ap: int32(ap), replay: true})
		}
	}
	if beh == BehaviorCorruptor {
		// Malicious forward: skip the conduit test entirely and rebroadcast
		// the (now corrupted) frame — corruption spreads as far as TTL
		// allows.
		s.push(event{t: t + cfg.TxDelay + s.rng.Float64()*cfg.JitterMax, kind: evTransmit, ap: int32(ap)})
		if cfg.RecordTranscript {
			res.Transcript[ap].Forwarded = true
		}
		return
	}
	// Hand the policy the TTL a live AP would read off the wire: the
	// sender decrements before transmitting, except the injection AP,
	// which broadcasts the original header unchanged.
	s.ctx.TTL = s.ttl[ap]
	if from >= 0 {
		s.ctx.TTL++
	}
	d := s.pol.OnReceive(&s.ctx, ap, s.pkt, from)
	if beh == BehaviorGrayhole && (d.Rebroadcast || len(d.NextHops) > 0) &&
		s.rng.Float64() < cfg.Adversary.dropProb() {
		// The grayhole quietly eats this forward; the transcript shows a
		// reception with no transmission — the evidence mismatch the
		// health layer keys on.
		res.GrayholeDrops++
		return
	}
	if d.Rebroadcast {
		s.push(event{t: t + cfg.TxDelay + s.rng.Float64()*cfg.JitterMax, kind: evTransmit, ap: int32(ap)})
		if cfg.RecordTranscript {
			res.Transcript[ap].Forwarded = true
		}
	}
	for _, nh := range d.NextHops {
		s.push(event{t: t + cfg.TxDelay + s.rng.Float64()*cfg.JitterMax, kind: evUnicast, ap: int32(ap), peer: nh})
		if cfg.RecordTranscript {
			res.Transcript[ap].Forwarded = true
		}
	}
}

// deliverForged processes a forged-message reception at node ap.
func (s *scratch) deliverForged(ap, from, msg int, t float64) {
	cfg := &s.cfg
	res := &s.res
	fm := &s.forged[msg-1]
	if s.gate.on && !s.gate.allow(ap, from, t) {
		res.RejectedRateLimited++
		return
	}
	if fm.spoof && cfg.Defense.MaxGeocastRadius > 0 && fm.radius > cfg.Defense.MaxGeocastRadius {
		res.RejectedGeocast++
		return
	}
	senderTTL, ok := fm.ttl[from]
	if !ok {
		return // sender lost its state race; cannot happen in practice
	}
	if cfg.Defense.MaxTTL > 0 && senderTTL > int(cfg.Defense.MaxTTL) {
		res.RejectedTTL++
		return
	}
	if _, dup := fm.ttl[ap]; dup {
		return
	}
	remaining := senderTTL - 1
	fm.ttl[ap] = remaining
	res.ForgedAccepts++
	if cfg.BlackholeSet.Contains(ap) || s.behavior(ap) == BehaviorBlackhole {
		return
	}
	if remaining <= 0 {
		return
	}
	// Honest relaying of the forgery: flood frames flood; spoofed geocasts
	// rebroadcast only inside the claimed disc — which is why an absurd
	// claimed radius recruits the whole city.
	if fm.spoof && s.eng.pos[ap].Dist(fm.center) > fm.radius {
		return
	}
	s.push(event{t: t + cfg.TxDelay + s.rng.Float64()*cfg.JitterMax, kind: evTransmit, ap: int32(ap), msg: int32(msg)})
}

// fanOut calls visit for every AP in radio reach of the transmitter at
// s.txPos. A static AP under a radio whose reach is the mesh range reads its
// adjacency row, which is that grid query's answer recorded at build time;
// anything else (a carrier on the move, a longer- or shorter-range radio)
// asks the grid.
func (s *scratch) fanOut(ap int, visit func(n int, p geo.Point) bool) {
	e := s.eng
	if s.rows && ap < s.numAPs {
		for _, n := range e.adj[ap] {
			visit(int(n), e.pos[n])
		}
		return
	}
	e.mesh.Grid().WithinRadius(s.txPos, s.radio.MaxRange(), visit)
}

// pushReceptions queues the receivers appended to the arena since start as
// one batch arriving at t from node from. The batch sorts where its first
// reception would have; the sequence numbers of the others are reserved, so
// everything pushed later sorts after all of them.
func (s *scratch) pushReceptions(t float64, from, msg, start int) {
	n := len(s.arena) - start
	if n == 0 {
		return
	}
	s.push(event{t: t, kind: evReceive, ap: int32(from), msg: int32(msg), off: int32(start), n: int32(n)})
	s.seq += int64(n - 1)
	s.batches++
}

func (s *scratch) onTransmit(ev event) {
	cfg := &s.cfg
	res := &s.res
	ap := int(ev.ap)
	if s.down(ap, ev.t) {
		return
	}
	start := len(s.arena)
	s.txArrival = ev.t + cfg.TxDelay
	s.txPos = s.nodePos(ap, ev.t)
	s.txAP = ap
	if ev.msg > 0 {
		// Forged-message wave: its own flood, kept out of the real
		// packet's Broadcasts/probe stream and invisible to mobile
		// carriers (they store only the real packet).
		res.ForgedBroadcasts++
		s.fanOut(ap, s.visitForged)
		s.pushReceptions(s.txArrival, ap, int(ev.msg), start)
		return
	}
	if ev.replay {
		res.ReplayedFrames++
	}
	s.probe(ProbeTransmit, ap, -1, ev.t, s.ttl[ap])
	res.Broadcasts++
	s.fanOut(ap, s.visitReal)
	// Moving carriers are not in the static AP grid: re-resolve each
	// against the transmitter's position. Out-of-range carriers are
	// skipped silently (not lost frames — nothing was ever addressed to
	// them); in-range ones face the same radio and loss coins as APs.
	arrival := s.txArrival
	pos := s.txPos
	for j := range cfg.Mobiles {
		node := s.numAPs + j
		if node == ap || s.seen[node] {
			continue
		}
		d := pos.Dist(s.nodePos(node, arrival))
		if d > s.radio.MaxRange() {
			continue
		}
		if !receives(s.radio, d, s.rng) {
			res.LostToRange++
			continue
		}
		if cfg.LossProb > 0 && s.rng.Float64() < cfg.LossProb {
			res.LostToLoss++
			continue
		}
		s.arena = append(s.arena, int32(node))
	}
	s.pushReceptions(arrival, ap, 0, start)
	// Chain the carrier's next periodic rebroadcast.
	if ap >= s.numAPs {
		mb := cfg.Mobiles[ap-s.numAPs]
		if next := ev.t + mb.interval(); next <= mb.horizon() {
			s.push(event{t: next, kind: evTransmit, ap: ev.ap})
		}
	}
}

func (s *scratch) onUnicast(ev event) {
	cfg := &s.cfg
	res := &s.res
	ap, peer := int(ev.ap), int(ev.peer)
	if s.down(ap, ev.t) {
		return
	}
	s.probe(ProbeTransmit, ap, -1, ev.t, s.ttl[ap])
	res.Broadcasts++
	arrival := ev.t + cfg.TxDelay
	if s.down(peer, arrival) {
		res.LostToDeadAP++
		return
	}
	if !receives(s.radio, s.eng.pos[ap].Dist(s.eng.pos[peer]), s.rng) {
		res.LostToRange++
		return
	}
	if cfg.LossProb > 0 && s.rng.Float64() < cfg.LossProb {
		res.LostToLoss++
		return
	}
	start := len(s.arena)
	s.arena = append(s.arena, ev.peer)
	s.pushReceptions(arrival, ap, 0, start)
}

func resetBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func resetInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	clear(s)
	return s
}
