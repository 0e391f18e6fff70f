package postbox

import (
	"sort"
	"sync"
	"time"
)

// StoredMessage is one message held by a postbox store.
type StoredMessage struct {
	// Seq is the store-assigned sequence number (monotonic per store).
	Seq uint64
	// To is the recipient address.
	To Address
	// Sealed is the encrypted message body (opaque to the store).
	Sealed []byte
	// Urgent requests push notification (packet.FlagUrgent).
	Urgent bool
	// StoredAt is the store's clock reading at acceptance.
	StoredAt time.Time
}

// PushFunc is invoked for urgent messages when the recipient has a cached
// location (§3 step 4 push notifications).
type PushFunc func(msg StoredMessage, lastBuilding int)

// Store is the message cache an AP runs for the postboxes it hosts. It is
// safe for concurrent use (the agent receives packets from multiple
// transports).
type Store struct {
	mu sync.Mutex
	// clock is injectable for deterministic tests.
	clock func() time.Time

	seq   uint64
	boxes map[Address][]StoredMessage
	// lastSeen caches each recipient's last-known building, refreshed on
	// every retrieval; it powers push notifications.
	lastSeen map[Address]int
	push     PushFunc

	// persist is the optional disk attachment (see persist.go); nil for a
	// purely in-memory store.
	persist *persister
}

const (
	// maxPerBox bounds memory per recipient; the oldest messages are
	// evicted.
	maxPerBox = 1024
	// retention is the age past which a message is dropped at replay.
	retention = 72 * time.Hour
)

// StoreOption configures a Store.
type StoreOption func(*Store)

// WithClock injects a clock (tests, simulations).
func WithClock(clock func() time.Time) StoreOption {
	return func(s *Store) { s.clock = clock }
}

// WithPush registers the urgent-message push hook.
func WithPush(fn PushFunc) StoreOption {
	return func(s *Store) { s.push = fn }
}

// NewStore returns an empty store on the real clock, holding up to
// maxPerBox messages per box.
func NewStore(opts ...StoreOption) *Store {
	s := &Store{
		clock:    time.Now,
		boxes:    make(map[Address][]StoredMessage),
		lastSeen: make(map[Address]int),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Put accepts a sealed message for the given recipient. If the message is
// urgent and the recipient's location is cached, the push hook fires.
func (s *Store) Put(to Address, sealed []byte, urgent bool) StoredMessage {
	s.mu.Lock()
	s.seq++
	msg := StoredMessage{
		Seq:      s.seq,
		To:       to,
		Sealed:   append([]byte(nil), sealed...),
		Urgent:   urgent,
		StoredAt: s.clock(),
	}
	box := append(s.boxes[to], msg)
	if len(box) > maxPerBox {
		box = box[len(box)-maxPerBox:]
	}
	s.boxes[to] = box
	s.logPut(&msg)
	push := s.push
	last, hasLoc := s.lastSeen[to]
	s.mu.Unlock()

	if urgent && push != nil && hasLoc {
		push(msg, last)
	}
	return msg
}

// Retrieve returns all messages for addr with Seq greater than afterSeq, in
// order, and caches the caller's current building for push notifications
// (§3: "Bob's postbox caches location updates from his device that it
// receives whenever his device checks for new messages").
func (s *Store) Retrieve(addr Address, afterSeq uint64, currentBuilding int) []StoredMessage {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastSeen[addr] = currentBuilding
	box := s.boxes[addr]
	i := sort.Search(len(box), func(i int) bool { return box[i].Seq > afterSeq })
	if i >= len(box) {
		return nil
	}
	out := make([]StoredMessage, len(box)-i)
	copy(out, box[i:])
	return out
}

// Ack removes messages for addr with Seq at or below seq (the device
// confirmed receipt).
func (s *Store) Ack(addr Address, seq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ackLocked(addr, seq) {
		s.logAck(addr, seq)
	}
}

// ackLocked removes acknowledged messages and reports whether anything was
// dropped; called with s.mu held (also by log replay, which must not
// re-log).
func (s *Store) ackLocked(addr Address, seq uint64) bool {
	box := s.boxes[addr]
	i := sort.Search(len(box), func(i int) bool { return box[i].Seq > seq })
	if i == 0 {
		return false
	}
	remaining := box[i:]
	if len(remaining) == 0 {
		delete(s.boxes, addr)
		return true
	}
	s.boxes[addr] = append([]StoredMessage(nil), remaining...)
	return true
}

// Totals reports the number of non-empty postboxes and total held
// messages (status dumps, tests).
func (s *Store) Totals() (boxes, messages int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, box := range s.boxes {
		if len(box) > 0 {
			boxes++
			messages += len(box)
		}
	}
	return boxes, messages
}

// Len returns the number of messages currently held for addr.
func (s *Store) Len(addr Address) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.boxes[addr])
}

// LastSeen returns the recipient's cached building, if any.
func (s *Store) LastSeen(addr Address) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.lastSeen[addr]
	return b, ok
}
