// Package session is the per-AP user-traffic layer: the boundary between
// phones attached to an AP's Wi-Fi and the inter-AP mesh. The paper's
// fallback network earns its keep exactly when everyone reaches for it at
// once, so this layer is built around overload: bounded per-client send
// and receive buffers, a bounded AP forwarding queue, and an admission
// controller (token bucket + tiered hashcash) that tightens automatically
// as the queue backs up. Backpressure is explicit — every reply carries
// the AP's load tier, the proof-of-work difficulty currently demanded, and
// the queue headroom — and every message an AP refuses or loses is charged
// to exactly one Cause, so offered load always reconciles:
//
//	Offered = Delivered + Queued + RejectedAdmission + RejectedRateLimit
//	        + RejectedBufferFull + DroppedNetworkExhausted
//
// Accepted messages ride the existing postbox substrate: local recipients'
// messages go straight into the AP's postbox store; remote ones drain
// through a Forwarder (core.SendReliable in the simulator, packet
// injection on a live agent) to the destination AP's store, where the
// recipient's device fetches and acks them through its own session.
//
// All methods take an explicit `now` in seconds (simulation time, or
// seconds-since-start on a live agent) so behaviour is fully deterministic
// under test and in experiment sweeps.
package session

import (
	"fmt"
	"sync"

	"citymesh/internal/postbox"
	"citymesh/internal/tokenbucket"
)

// Buffer bounds.
const (
	// DefaultSendBufCap bounds one client's unsent messages in the AP queue.
	DefaultSendBufCap = 32
	// recvBufCap bounds the unacked messages handed out per fetch — the
	// receive window a client must ack to advance.
	recvBufCap = 64
	// DefaultQueueCap bounds the AP-wide forwarding queue; its depth drives
	// the admission tier.
	DefaultQueueCap = 1024
	// DefaultRetryAfter is the advisory client backoff at TierNormal,
	// seconds; it doubles per tier.
	DefaultRetryAfter = 1.0
)

// Config parameterizes a Service. Zero values select the defaults above.
type Config struct {
	// Building is the AP's dense building index; submissions addressed to
	// it are stored locally instead of forwarded.
	Building int
	// Store holds messages for recipients whose postbox is this AP. Nil
	// creates a fresh in-memory store.
	Store *postbox.Store

	SendBufCap int
	QueueCap   int

	ClientRate  float64
	ClientBurst float64

	PowBitsCongested int
	PowBitsOverload  int
}

func (c Config) withDefaults() Config {
	if c.Store == nil {
		c.Store = postbox.NewStore()
	}
	if c.SendBufCap <= 0 {
		c.SendBufCap = DefaultSendBufCap
	}
	if c.QueueCap <= 0 {
		c.QueueCap = DefaultQueueCap
	}
	if c.ClientRate <= 0 {
		c.ClientRate = DefaultClientRate
	}
	if c.ClientBurst <= 0 {
		c.ClientBurst = DefaultClientBurst
	}
	if c.PowBitsCongested <= 0 {
		c.PowBitsCongested = DefaultPowBitsCongested
	}
	if c.PowBitsOverload <= 0 {
		c.PowBitsOverload = DefaultPowBitsOverload
	}
	return c
}

// Pending is one accepted message waiting in the AP's forwarding queue.
type Pending struct {
	From       uint64
	Dst        int
	To         postbox.Address
	Payload    []byte
	EnqueuedAt float64
}

// Outcome is a Forwarder's verdict on one message.
type Outcome struct {
	// Delivered reports whether the message reached the destination AP's
	// postbox store.
	Delivered bool
	// Latency is transport time in seconds (backoff waits, retries) beyond
	// the queue wait, which the Service adds itself.
	Latency float64
	// Broadcasts is the transmission cost of the attempt.
	Broadcasts int
}

// Forwarder carries a drained message toward its destination AP. A
// Forwarder that reports Delivered must also have deposited the payload in
// the destination postbox; the Service only does that for its own building.
type Forwarder interface {
	Forward(m *Pending, now float64) Outcome
}

// Delivery is the drain-time record of one dequeued message, returned so
// callers (the traffic generator, a live drain loop) can aggregate
// latency distributions without the Service retaining unbounded history.
type Delivery struct {
	Msg       *Pending
	Delivered bool
	// Latency is queue wait + transport time, seconds.
	Latency    float64
	Broadcasts int
}

// Stats counts the service's message flow. Every offered message lands in
// exactly one terminal counter (or is still Queued); AccountingError checks
// the partition.
type Stats struct {
	Offered  uint64
	Accepted uint64
	// Deduped counts resubmissions suppressed by the content-hash window:
	// the client's original was already accepted, so the resend is answered
	// with an idempotent TAccept and not queued again.
	Deduped uint64
	// Delivered counts messages that reached a postbox store (local or via
	// a Forwarder).
	Delivered               uint64
	RejectedAdmission       uint64
	RejectedRateLimit       uint64
	RejectedBufferFull      uint64
	DroppedNetworkExhausted uint64
	// Queued is the forwarding-queue depth at snapshot time.
	Queued int
	// Fetched and Acked count receive-side messages handed out and
	// acknowledged.
	Fetched uint64
	Acked   uint64
	// Malformed counts undecodable frames; these never become offered
	// messages and sit outside the partition.
	Malformed uint64
	// Attached is the live session count; PeakTier the worst tier reached.
	Attached int
	Tier     Tier
	PeakTier Tier
}

// AccountingError verifies that every offered message is in exactly one
// state. It returns nil when the books balance.
func (s Stats) AccountingError() error {
	terminal := s.Delivered + s.DroppedNetworkExhausted + uint64(s.Queued)
	if s.Accepted != terminal {
		return fmt.Errorf("session: accepted %d != delivered %d + exhausted %d + queued %d",
			s.Accepted, s.Delivered, s.DroppedNetworkExhausted, s.Queued)
	}
	sum := s.Accepted + s.Deduped + s.RejectedAdmission + s.RejectedRateLimit + s.RejectedBufferFull
	if s.Offered != sum {
		return fmt.Errorf("session: offered %d != accepted %d + deduped %d + admission %d + rate %d + buffer %d",
			s.Offered, s.Accepted, s.Deduped, s.RejectedAdmission, s.RejectedRateLimit, s.RejectedBufferFull)
	}
	return nil
}

type sessionState struct {
	addr       postbox.Address
	bucket     tokenbucket.Bucket
	queued     int // this client's messages in the AP queue
	lastActive float64
}

// Service is one AP's session endpoint. Safe for concurrent use: a live
// agent handles client frames and runs the drain loop on separate
// goroutines.
type Service struct {
	mu       sync.Mutex
	cfg      Config
	store    *postbox.Store
	sessions map[uint64]*sessionState
	queue    []*Pending
	recent   *dedupWindow
	stats    Stats
}

// New builds a Service from cfg (zero fields take defaults).
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	return &Service{
		cfg:      cfg,
		store:    cfg.Store,
		sessions: make(map[uint64]*sessionState),
		recent:   newDedupWindow(),
	}
}

// Store exposes the AP's postbox store (live agents share it with the
// packet-delivery path).
func (s *Service) Store() *postbox.Store { return s.store }

// Stats returns a snapshot of the counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked()
}

func (s *Service) snapshotLocked() Stats {
	st := s.stats
	st.Queued = len(s.queue)
	st.Attached = len(s.sessions)
	st.Tier = s.tierLocked()
	return st
}

func (s *Service) tierLocked() Tier {
	return tierFor(len(s.queue), s.cfg.QueueCap)
}

func (s *Service) powBits(t Tier) uint8 {
	switch t {
	case TierCongested:
		return uint8(s.cfg.PowBitsCongested)
	case TierOverload:
		return uint8(s.cfg.PowBitsOverload)
	default:
		return 0
	}
}

func (s *Service) noteTierLocked(t Tier) {
	if t > s.stats.PeakTier {
		s.stats.PeakTier = t
	}
}

func (s *Service) acceptLocked() Reply {
	t := s.tierLocked()
	s.noteTierLocked(t)
	headroom := s.cfg.QueueCap - len(s.queue)
	if headroom < 0 {
		headroom = 0
	}
	return Reply{Type: TAccept, Tier: t, PowBits: s.powBits(t), Headroom: uint32(headroom)}
}

func (s *Service) rejectLocked(cause Cause) Reply {
	t := s.tierLocked()
	s.noteTierLocked(t)
	retry := DefaultRetryAfter * float64(uint32(1)<<t)
	return Reply{
		Type: TReject, Cause: cause, Tier: t, PowBits: s.powBits(t),
		RetryAfterMs: uint32(retry * 1000),
	}
}

// Advice returns the current backpressure signal without side effects:
// tier, required proof-of-work bits, and queue headroom. Clients use it to
// pre-solve proofs before submitting.
func (s *Service) Advice(now float64) (Tier, uint8, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = now
	t := s.tierLocked()
	headroom := s.cfg.QueueCap - len(s.queue)
	if headroom < 0 {
		headroom = 0
	}
	return t, s.powBits(t), headroom
}

// Attach opens or refreshes a session. The session table is bounded: at
// capacity the stalest idle session is recycled; if every session has
// queued traffic the attach is refused (CauseAdmission).
func (s *Service) Attach(clientID uint64, addr postbox.Address, now float64) Reply {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess, ok := s.sessions[clientID]; ok {
		sess.addr = addr
		sess.lastActive = now
		return s.acceptLocked()
	}
	if len(s.sessions) >= maxSessions {
		if !s.recycleLocked() {
			return s.rejectLocked(CauseAdmission)
		}
	}
	s.sessions[clientID] = &sessionState{
		addr:       addr,
		bucket:     tokenbucket.Full(s.cfg.ClientBurst, now),
		lastActive: now,
	}
	return s.acceptLocked()
}

// recycleLocked evicts the stalest session with no queued traffic,
// reporting whether a slot was freed.
func (s *Service) recycleLocked() bool {
	var (
		victim uint64
		oldest float64
		found  bool
	)
	for id, sess := range s.sessions {
		if sess.queued > 0 {
			continue
		}
		if !found || sess.lastActive < oldest || (sess.lastActive == oldest && id < victim) {
			victim, oldest, found = id, sess.lastActive, true
		}
	}
	if found {
		delete(s.sessions, victim)
	}
	return found
}

// Submit offers one message. The checks run cheapest-first and each failed
// message is charged to exactly one cause: rate-limit (token bucket), then
// admission (missing/insufficient proof-of-work for the current tier, or
// no session), then buffer-full (per-client send buffer or AP queue).
func (s *Service) Submit(m Msg, now float64) Reply {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Offered++
	sess, ok := s.sessions[m.ClientID]
	if !ok {
		s.stats.RejectedAdmission++
		return s.rejectLocked(CauseAdmission)
	}
	sess.lastActive = now
	// Resubmission of content this AP already accepted (the TAccept was
	// lost on the client's lossy link): answer idempotently without
	// queueing a second copy — and without charging the client's token
	// bucket for the mesh's unreliability. Only accepted messages enter
	// the window, so a rejected submission can always be retried.
	key := submitKey(m.ClientID, m.Dst, m.To, m.Payload)
	if s.recent.seen(key, now) {
		s.stats.Deduped++
		return s.acceptLocked()
	}
	if !sess.bucket.Allow(now, s.cfg.ClientRate, s.cfg.ClientBurst, 1) {
		s.stats.RejectedRateLimit++
		return s.rejectLocked(CauseRateLimit)
	}
	tier := s.tierLocked()
	s.noteTierLocked(tier)
	if bits := int(s.powBits(tier)); bits > 0 &&
		!CheckPoW(m.ClientID, m.To, m.Payload, m.PowNonce, bits) {
		s.stats.RejectedAdmission++
		return s.rejectLocked(CauseAdmission)
	}
	if sess.queued >= s.cfg.SendBufCap || len(s.queue) >= s.cfg.QueueCap {
		s.stats.RejectedBufferFull++
		return s.rejectLocked(CauseBufferFull)
	}
	s.stats.Accepted++
	s.recent.record(key, now)
	sess.queued++
	s.queue = append(s.queue, &Pending{
		From: m.ClientID, Dst: m.Dst, To: m.To,
		Payload: m.Payload, EnqueuedAt: now,
	})
	return s.acceptLocked()
}

// Fetch returns up to the receive window of stored messages for the
// client's address with sequence numbers above afterSeq. The window is the
// receive-side backpressure bound: un-acked messages keep occupying it, so
// a client that never acks stops receiving.
func (s *Service) Fetch(clientID, afterSeq uint64, now float64) Reply {
	s.mu.Lock()
	sess, ok := s.sessions[clientID]
	if !ok {
		r := s.rejectLocked(CauseAdmission)
		s.mu.Unlock()
		return r
	}
	sess.lastActive = now
	addr := sess.addr
	s.mu.Unlock()

	stored := s.store.Retrieve(addr, afterSeq, s.cfg.Building)
	if window := min(recvBufCap, MaxDeliverBatch); len(stored) > window {
		stored = stored[:window]
	}
	msgs := make([]DeliverMsg, len(stored))
	for i, sm := range stored {
		msgs[i] = DeliverMsg{Seq: sm.Seq, Payload: sm.Sealed}
	}
	s.mu.Lock()
	s.stats.Fetched += uint64(len(msgs))
	s.mu.Unlock()
	return Reply{Type: TDeliver, Msgs: msgs}
}

// Ack confirms receipt of stored messages up to upToSeq, freeing the
// receive window. The reply reports how many messages remain stored.
func (s *Service) Ack(clientID, upToSeq uint64, now float64) Reply {
	s.mu.Lock()
	sess, ok := s.sessions[clientID]
	if !ok {
		r := s.rejectLocked(CauseAdmission)
		s.mu.Unlock()
		return r
	}
	sess.lastActive = now
	addr := sess.addr
	s.mu.Unlock()

	before := s.store.Len(addr)
	s.store.Ack(addr, upToSeq)
	after := s.store.Len(addr)

	s.mu.Lock()
	if before > after {
		s.stats.Acked += uint64(before - after)
	}
	s.mu.Unlock()
	return Reply{Type: TAckOK, Remaining: uint32(after)}
}

// Handle is the wire entry point: decode one client frame, dispatch it,
// and return the encoded reply (nil for undecodable frames, which are
// counted as Malformed and never panic — this is the fuzz target).
func (s *Service) Handle(frame []byte, now float64) []byte {
	m, err := DecodeMsg(frame)
	if err != nil {
		s.mu.Lock()
		s.stats.Malformed++
		s.mu.Unlock()
		return nil
	}
	var r Reply
	switch m.Type {
	case TAttach:
		r = s.Attach(m.ClientID, m.Addr, now)
	case TSubmit:
		r = s.Submit(m, now)
	case TFetch:
		r = s.Fetch(m.ClientID, m.AfterSeq, now)
	case TAck:
		r = s.Ack(m.ClientID, m.UpToSeq, now)
	default:
		s.mu.Lock()
		s.stats.Malformed++
		s.mu.Unlock()
		return nil
	}
	out, err := EncodeReply(r)
	if err != nil {
		return nil
	}
	return out
}

// Drain dequeues up to budget messages and carries each toward its
// destination: messages for this AP's own building go straight into the
// local postbox store; the rest go through fwd. A nil fwd (or a ladder
// that runs dry) charges the message to CauseNetworkExhausted. The
// forwarding itself runs outside the service lock so client frames are
// never blocked behind transport retries.
func (s *Service) Drain(now float64, budget int, fwd Forwarder) []Delivery {
	s.mu.Lock()
	n := budget
	if n > len(s.queue) {
		n = len(s.queue)
	}
	if n <= 0 {
		s.mu.Unlock()
		return nil
	}
	batch := make([]*Pending, n)
	copy(batch, s.queue[:n])
	s.queue = append(s.queue[:0], s.queue[n:]...)
	for _, m := range batch {
		if sess := s.sessions[m.From]; sess != nil && sess.queued > 0 {
			sess.queued--
		}
	}
	s.mu.Unlock()

	out := make([]Delivery, 0, n)
	for _, m := range batch {
		d := Delivery{Msg: m, Latency: now - m.EnqueuedAt}
		if m.Dst == s.cfg.Building {
			s.store.Put(m.To, m.Payload, false)
			d.Delivered = true
		} else if fwd != nil {
			o := fwd.Forward(m, now)
			d.Delivered = o.Delivered
			d.Latency += o.Latency
			d.Broadcasts = o.Broadcasts
		}
		s.mu.Lock()
		if d.Delivered {
			s.stats.Delivered++
		} else {
			s.stats.DroppedNetworkExhausted++
		}
		s.mu.Unlock()
		out = append(out, d)
	}
	return out
}

// QueueLen reports the forwarding-queue depth.
func (s *Service) QueueLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}
