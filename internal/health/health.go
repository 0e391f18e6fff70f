// Package health is the sender-side route-health memory that makes the
// resilient delivery ladder (core.SendReliable) self-healing. The paper's
// zero-metadata property forbids APs from exchanging liveness or routing
// state, so the only signal a sender ever gets is the end-to-end outcome of
// its own transmissions. This package turns that signal into memory: every
// failed attempt raises a *suspicion score* on the waypoint buildings of the
// failed route, every success relieves it, and all scores decay
// exponentially over simulated time so that healed regions are re-trusted
// without a single control packet.
//
// The planner consumes the memory as per-building cost multipliers
// (buildinggraph vertex penalties): a building under suspicion makes every
// route through it expensive, steering the planner around the
// suspected-dead region instead of burning retries, widened conduits, and
// floods through it again.
//
// The map also classifies destinations as *partitioned* when the full
// ladder exhausts repeatedly against them. Partitioned destinations are
// candidates for store-and-heal delivery (core.SendEventually): park the
// message, back off, and re-probe as churn or repair restores the mesh.
// Partition belief expires after probeAfter seconds of sim time, so a
// healed destination is re-probed rather than shunned forever.
package health

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

const (
	// FailBump is the suspicion added to each observed building of a
	// failed route.
	FailBump float64 = 1
	// successFactor multiplies (shrinks) the suspicion of each building of
	// a delivered route — direct evidence the region forwards again, which
	// re-trusts much faster than decay alone.
	successFactor = 0.25
	// mismatchBump is the suspicion added per delivery-evidence mismatch: a
	// building whose AP provably received a frame and should have forwarded
	// it, yet the wave died there. A mismatch is stronger evidence than a
	// bare route failure (the lie is localized), so it bumps harder than
	// FailBump.
	mismatchBump = 2
	// penaltyWeight converts suspicion into the planner's multiplicative
	// cost factor: penalty = 1 + penaltyWeight * suspicion.
	penaltyWeight = 8
	// suspectThreshold is the suspicion above which a building counts as
	// suspect in diagnostics (SuspectCount, Suspects).
	suspectThreshold = 0.5
	// maxSuspicion caps any single building's score so a long outage
	// cannot build unbounded distrust that outlives the repair.
	maxSuspicion = 8
	// partitionAfter is the number of consecutive full-ladder exhaustions
	// against one destination before it is classified partitioned.
	partitionAfter = 2
	// probeAfter is how long (sim seconds) a partition classification
	// stands before the destination is re-probed: Partitioned returns false
	// once this much time has passed since the last exhaustion.
	probeAfter = 10
)

// Config tunes the memory. A field that is zero or negative selects its
// DefaultConfig value.
type Config struct {
	// DecayTau is the e-folding time of suspicion in simulated seconds: a
	// score decays by 1/e every DecayTau with no new evidence. Shorter taus
	// re-trust damaged regions faster; longer taus remember damage longer.
	DecayTau float64
}

// DefaultConfig returns the evaluation defaults: 30 s decay.
func DefaultConfig() Config {
	return Config{
		DecayTau: 30,
	}
}

// withDefaults fills zero fields from DefaultConfig.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.DecayTau <= 0 {
		c.DecayTau = d.DecayTau
	}
	return c
}

// entry is one building's lazily-decayed suspicion score.
type entry struct {
	score float64 // value at time `at`
	at    float64 // sim time of last update
}

// partition tracks ladder exhaustions against one destination.
type partition struct {
	consecutive int
	lastExhaust float64
}

// Map is one sender's route-health memory. It is safe for concurrent use,
// though the intended deployment is one Map per sending agent.
type Map struct {
	mu  sync.Mutex
	cfg Config
	now float64
	sus map[int]entry
	// parts tracks consecutive full-ladder exhaustions per destination
	// building for partition classification.
	parts map[int]partition
}

// New returns an empty memory at sim time 0.
func New(cfg Config) *Map {
	return &Map{
		cfg:   cfg.withDefaults(),
		sus:   make(map[int]entry),
		parts: make(map[int]partition),
	}
}

// Now returns the map's current sim time.
func (m *Map) Now() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// Advance moves the map's clock forward by dt seconds. Decay is lazy, so
// Advance is O(1); negative dt is ignored (the clock never runs backward).
func (m *Map) Advance(dt float64) {
	if dt <= 0 {
		return
	}
	m.mu.Lock()
	m.now += dt
	m.mu.Unlock()
}

// decayedLocked returns e's score decayed to the map's current time.
func (m *Map) decayedLocked(e entry) float64 {
	if e.score <= 0 {
		return 0
	}
	return e.score * math.Exp(-(m.now-e.at)/m.cfg.DecayTau)
}

// Suspicion returns building b's current (decayed) suspicion score.
func (m *Map) Suspicion(b int) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.sus[b]
	if !ok {
		return 0
	}
	return m.decayedLocked(e)
}

// AddSuspicion raises building b's score by amount (clamped to
// maxSuspicion). Exposed so callers can spread partial suspicion onto
// graph neighbors of a failed waypoint — damage is spatially correlated.
func (m *Map) AddSuspicion(b int, amount float64) {
	if amount <= 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.addLocked(b, amount)
}

func (m *Map) addLocked(b int, amount float64) {
	s := 0.0
	if e, ok := m.sus[b]; ok {
		s = m.decayedLocked(e)
	}
	s += amount
	if s > maxSuspicion {
		s = maxSuspicion
	}
	m.sus[b] = entry{score: s, at: m.now}
}

// ObserveFailure records a failed traversal: every listed building gains
// FailBump suspicion. Callers pass the *interior* waypoints of the failed
// route — the endpoints are not evidence of damage (the sender is alive,
// and the destination's state is tracked separately by partition
// classification).
func (m *Map) ObserveFailure(buildings []int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, b := range buildings {
		m.addLocked(b, FailBump)
	}
}

// ObserveSuccess records a delivered traversal: every listed building's
// suspicion shrinks by successFactor — the strongest possible evidence the
// region is healthy again.
func (m *Map) ObserveSuccess(buildings []int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, b := range buildings {
		e, ok := m.sus[b]
		if !ok {
			continue
		}
		s := m.decayedLocked(e) * successFactor
		if s < 1e-6 {
			delete(m.sus, b)
			continue
		}
		m.sus[b] = entry{score: s, at: m.now}
	}
}

// ObserveMismatch records delivery-evidence mismatches: buildings whose AP
// received a frame it should have forwarded, yet the wave provably died
// there — the signature of a grayhole or blackhole rather than radio loss.
// Each listed building gains mismatchBump suspicion, so penalty-weighted
// replanning routes around liars the same way it routes around damage.
func (m *Map) ObserveMismatch(buildings []int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, b := range buildings {
		m.addLocked(b, mismatchBump)
	}
}

// Penalty returns the planner cost multiplier for building b:
// 1 + penaltyWeight * suspicion. Healthy buildings cost 1 (no change).
func (m *Map) Penalty(b int) float64 {
	return 1 + penaltyWeight*m.Suspicion(b)
}

// PenaltyFunc snapshots the current penalties into a closure suitable as a
// buildinggraph.VertexPenalty. The snapshot is taken once, so the planner's
// hot loop performs plain map reads with no locking or exp calls.
func (m *Map) PenaltyFunc() func(b int) float64 {
	m.mu.Lock()
	snap := make(map[int]float64, len(m.sus))
	for b, e := range m.sus {
		if s := m.decayedLocked(e); s > 1e-9 {
			snap[b] = 1 + penaltyWeight*s
		}
	}
	m.mu.Unlock()
	if len(snap) == 0 {
		return nil
	}
	return func(b int) float64 {
		if p, ok := snap[b]; ok {
			return p
		}
		return 1
	}
}

// SuspectCount returns the number of buildings whose current suspicion
// exceeds suspectThreshold.
func (m *Map) SuspectCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, e := range m.sus {
		if m.decayedLocked(e) > suspectThreshold {
			n++
		}
	}
	return n
}

// Suspect is one suspect building in a diagnostic snapshot.
type Suspect struct {
	Building  int
	Suspicion float64
}

// Suspects returns the buildings above suspectThreshold, most suspect
// first (ties broken by building index for determinism).
func (m *Map) Suspects() []Suspect {
	m.mu.Lock()
	var out []Suspect
	for b, e := range m.sus {
		if s := m.decayedLocked(e); s > suspectThreshold {
			out = append(out, Suspect{Building: b, Suspicion: s})
		}
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Suspicion != out[j].Suspicion {
			return out[i].Suspicion > out[j].Suspicion
		}
		return out[i].Building < out[j].Building
	})
	return out
}

// ObserveExhausted records that a full delivery ladder exhausted against
// destination dst, and returns the consecutive-exhaustion count.
func (m *Map) ObserveExhausted(dst int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.parts[dst]
	p.consecutive++
	p.lastExhaust = m.now
	m.parts[dst] = p
	return p.consecutive
}

// ObserveDelivered clears destination dst's partition state — any
// delivery, by any rung, proves the destination reachable.
func (m *Map) ObserveDelivered(dst int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.parts, dst)
}

// Partitioned reports whether dst is currently classified partitioned:
// at least partitionAfter consecutive ladder exhaustions, with the most
// recent one within the last probeAfter seconds. Once probeAfter elapses
// the classification lapses so the destination gets re-probed — the
// passive analog of the store-and-heal scheduler's backoff.
func (m *Map) Partitioned(dst int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.parts[dst]
	if !ok || p.consecutive < partitionAfter {
		return false
	}
	return m.now-p.lastExhaust < probeAfter
}

// Reset clears all suspicion and partition state (the clock is kept).
func (m *Map) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sus = make(map[int]entry)
	m.parts = make(map[int]partition)
}

// String summarizes the map for status dumps.
func (m *Map) String() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	suspects, parts := 0, 0
	for _, e := range m.sus {
		if m.decayedLocked(e) > suspectThreshold {
			suspects++
		}
	}
	for _, p := range m.parts {
		if p.consecutive >= partitionAfter && m.now-p.lastExhaust < probeAfter {
			parts++
		}
	}
	return fmt.Sprintf("health.Map{t=%.2fs suspects=%d tracked=%d partitioned=%d}",
		m.now, suspects, len(m.sus), parts)
}
