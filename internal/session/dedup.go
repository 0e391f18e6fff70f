package session

import (
	"encoding/binary"
	"hash/fnv"

	"citymesh/internal/fifo"
	"citymesh/internal/postbox"
)

// Dedup window defaults. The window mirrors the relay daemon's
// duplicate-suppression cache (internal/agent's dedup set), adapted for the
// session layer: the mesh dedups by message ID, but a phone that never saw
// its TAccept reply resubmits the *same content* under a fresh submission —
// so here the key is a content hash and entries expire, letting a user
// legitimately send the identical text again later.
const (
	// DefaultDedupCap bounds the remembered submissions per AP.
	DefaultDedupCap = 4096
	// DefaultDedupWindowS is how long a resubmission counts as a duplicate,
	// sized to outlast any client retry schedule (tier backoffs cap at
	// seconds) with a wide margin.
	DefaultDedupWindowS = 300.0
)

// submitKey fingerprints a submission's identity-relevant content: same
// client, same recipient, same bytes → same message, however many times the
// lossy mesh makes the client resend it.
func submitKey(clientID uint64, dst int, to postbox.Address, payload []byte) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], clientID)
	h.Write(b[:])
	binary.BigEndian.PutUint64(b[:], uint64(int64(dst)))
	h.Write(b[:])
	h.Write(to[:])
	h.Write(payload)
	return h.Sum64()
}

// dedupWindow is a FIFO-evicting content-hash set with per-entry
// timestamps: a hit only counts as duplicate while its entry is younger
// than the window. A retry burst is short relative to capacity, so FIFO
// eviction loses nothing. A nil window is disabled dedup.
type dedupWindow struct {
	windowS float64
	at      *fifo.Map[float64]
}

func newDedupWindow(capacity int, windowS float64) *dedupWindow {
	if capacity < 0 {
		return nil // dedup disabled
	}
	if capacity == 0 {
		capacity = DefaultDedupCap
	}
	if windowS <= 0 {
		windowS = DefaultDedupWindowS
	}
	return &dedupWindow{windowS: windowS, at: fifo.New[float64](capacity)}
}

// seen reports whether key was recorded within the window before now.
func (d *dedupWindow) seen(key uint64, now float64) bool {
	if d == nil {
		return false
	}
	at, ok := d.at.Get(key)
	return ok && now-at < d.windowS
}

// record stamps key at now, evicting the oldest insertion at capacity. A
// key already held (expired, or racing) is refreshed in place.
func (d *dedupWindow) record(key uint64, now float64) {
	if d != nil {
		d.at.Put(key, now)
	}
}
