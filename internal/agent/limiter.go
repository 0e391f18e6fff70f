package agent

import (
	"sync"
	"time"

	"citymesh/internal/tokenbucket"
)

// Overload protection. A deployed AP takes frames from whoever transmits;
// a single hostile or faulty neighbor replaying frames at line rate must
// degrade to bounded drops, not unbounded CPU (every accepted frame costs a
// CRC + decode + conduit test). Two budgets apply before decoding:
//
//   - a per-source token bucket (frames/sec), so one noisy neighbor cannot
//     starve the others;
//   - a global byte bucket (bytes/sec), capping the total inbound work the
//     agent will accept regardless of how many sources share the load.
//
// Both are tokenbucket.Buckets, the arithmetic the simulator's defense rate
// gate and session admission charge through too, on a clock of seconds
// since the first frame the limiter saw; the agent's clock is injectable
// for deterministic tests. The per-source table is bounded: at capacity the
// bucket of the first-seen source is recycled, in constant time, keeping
// memory fixed on a 32 MB router no matter how many source addresses an
// attacker forges.

// Default rate-limit parameters, sized far above legitimate mesh traffic
// (a flood wave delivers each message to a neighbor a handful of times).
const (
	DefaultNeighborRate = 500  // frames/sec per source; burst 0 derives 2x rate
	DefaultMaxSources   = 1024 // distinct source buckets remembered
)

// limiter combines the per-source buckets with the global byte budget.
type limiter struct {
	mu                  sync.Mutex
	rate, burst         float64 // per-source frames/sec; rate<=0 disables
	byteRate, byteBurst float64 // global bytes/sec; byteRate<=0 disables
	epoch               time.Time
	sources             map[string]*tokenbucket.Bucket
	// order holds the sources' keys, first seen first. It is made with the
	// first source, so an agent that never hears one carries only the
	// pointer.
	order  *keyRing
	global tokenbucket.Bucket // cost = bytes
}

// newLimiter builds a limiter; rate<=0 disables per-source limiting and
// bytesPerSec<=0 disables the global budget. A per-source burst of 0 derives
// twice the rate; the byte budget's burst is always twice its rate.
func newLimiter(rate, burst, bytesPerSec float64) *limiter {
	byteBurst := tokenbucket.Burst(bytesPerSec, 0)
	return &limiter{
		rate:      rate,
		burst:     tokenbucket.Burst(rate, burst),
		byteRate:  bytesPerSec,
		byteBurst: byteBurst,
		sources:   make(map[string]*tokenbucket.Bucket),
		global:    tokenbucket.Full(byteBurst, 0),
	}
}

// seconds reads now on the buckets' clock, which starts at the first
// reading; called with l.mu held.
func (l *limiter) seconds(now time.Time) float64 {
	if l.epoch.IsZero() {
		l.epoch = now
	}
	return now.Sub(l.epoch).Seconds()
}

// allowSource charges one frame against src's bucket.
func (l *limiter) allowSource(src string, now time.Time) bool {
	if l.rate <= 0 {
		return true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	t := l.seconds(now)
	b := l.sources[src]
	if b == nil {
		b = l.takeBucket(src)
		l.sources[src] = b
		*b = tokenbucket.Full(l.burst, t)
	}
	return b.Allow(t, l.rate, l.burst, 1)
}

// takeBucket returns a bucket for the new source src, recycling the
// first-seen source's bucket when the table is at capacity; called with
// l.mu held. The caller fills it afresh, so a forged-source flood cannot
// inherit a recycled bucket's tokens.
func (l *limiter) takeBucket(src string) *tokenbucket.Bucket {
	if l.order == nil {
		l.order = &keyRing{max: DefaultMaxSources}
	}
	old, full := l.order.add(src)
	if !full {
		return new(tokenbucket.Bucket)
	}
	b := l.sources[old]
	delete(l.sources, old)
	return b
}

// allowBytes charges n bytes against the global inbound budget.
func (l *limiter) allowBytes(n int, now time.Time) bool {
	if l.byteRate <= 0 {
		return true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.global.Allow(l.seconds(now), l.byteRate, l.byteBurst, float64(n))
}

// keyRing bounds a string-keyed table by forgetting its first-seen key
// first, the policy internal/fifo documents for the uint64-keyed sets. It
// holds only the keys, in the order they arrived, and grows with them; the
// table keeps its own map for lookups and deletes a key only when add
// displaces it.
type keyRing struct {
	keys []string
	max  int // keys the table holds at most
	next int // slot the next key overwrites once the ring is full
}

// add records key, which the table does not hold, and reports the key it
// displaces once the ring is full: the table must then delete old.
func (r *keyRing) add(key string) (old string, full bool) {
	if len(r.keys) < r.max {
		r.keys = append(r.keys, key)
		return "", false
	}
	old = r.keys[r.next]
	r.keys[r.next] = key
	r.next = (r.next + 1) % r.max
	return old, true
}
