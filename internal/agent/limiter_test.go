package agent

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// TestLimiterDisabled turns both budgets off: with a negative per-source
// rate and no byte budget every frame passes, however large or frequent.
func TestLimiterDisabled(t *testing.T) {
	l := newLimiter(-1, 0, 0)
	now := time.Unix(1000, 0)
	for i := 0; i < 100; i++ {
		if !l.allowSource("a", now) || !l.allowBytes(1e9, now) {
			t.Fatal("disabled limiter refused a frame")
		}
	}
	if len(l.sources) != 0 {
		t.Fatalf("disabled limiter tracks %d sources", len(l.sources))
	}
}

func TestLimiterPerSourceIsolation(t *testing.T) {
	now := time.Unix(2000, 0)
	l := newLimiter(10, 10, 0)
	// Source A exhausts its bucket; source B is unaffected.
	for i := 0; i < 10; i++ {
		if !l.allowSource("a", now) {
			t.Fatalf("a refused at frame %d", i)
		}
	}
	if l.allowSource("a", now) {
		t.Fatal("a allowed past burst")
	}
	if !l.allowSource("b", now) {
		t.Fatal("b throttled by a's storm")
	}
}

// TestLimiterGlobalByteBudget: the byte budget's burst is twice its rate.
func TestLimiterGlobalByteBudget(t *testing.T) {
	now := time.Unix(3000, 0)
	l := newLimiter(-1, 0, 1000)
	for i := 0; i < 2; i++ {
		if !l.allowBytes(800, now) {
			t.Fatalf("charge %d within the 2000-byte burst refused", i)
		}
	}
	if l.allowBytes(800, now) {
		t.Fatal("over budget allowed")
	}
	now = now.Add(time.Second)
	if !l.allowBytes(800, now) {
		t.Fatal("refilled budget refused")
	}
}

func TestLimiterSourceTableBounded(t *testing.T) {
	now := time.Unix(4000, 0)
	l := newLimiter(10, 10, 0)
	for i := 0; i < 2*DefaultMaxSources; i++ {
		l.allowSource(fmt.Sprintf("src-%d", i), now.Add(time.Duration(i)*time.Millisecond))
	}
	l.mu.Lock()
	n := len(l.sources)
	l.mu.Unlock()
	if n > DefaultMaxSources {
		t.Fatalf("source table grew to %d entries, cap %d", n, DefaultMaxSources)
	}
	// Forged-source churn must not hand out unlimited tokens: a recycled
	// bucket still enforces its own burst.
	src := "recycled"
	allowed := 0
	tick := now.Add(5 * time.Second) // after every source above
	for i := 0; i < 100; i++ {
		if l.allowSource(src, tick) {
			allowed++
		}
	}
	if allowed > 10 {
		t.Fatalf("recycled bucket allowed %d frames, burst is 10", allowed)
	}
}

// TestNewSourceAtCapacityCostsTheSame: once the source table is full, a
// frame from a new source recycles the first-seen source's bucket without
// scanning the table, so it costs the same in a table of 1,024 sources as
// in one of 64. A scan for the stalest bucket costs 16 times as much at
// 1,024.
func TestNewSourceAtCapacityCostsTheSame(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	keys := make([]string, 8192)
	for i := range keys {
		keys[i] = fmt.Sprintf("10.%d.%d.%d:9999", i>>16, (i>>8)&0xff, i&0xff)
	}
	// nsPerNewSource is the best of five timings of 8,192 frames from
	// sources a full table of capacity entries does not hold.
	nsPerNewSource := func(capacity int) float64 {
		now := time.Unix(7000, 0)
		l := newLimiter(10, 10, 0)
		l.order = &keyRing{max: capacity}
		for i := 0; i < capacity; i++ {
			l.allowSource(keys[len(keys)-1-i], now)
		}
		best := math.Inf(1)
		for trial := 0; trial < 5; trial++ {
			start := time.Now()
			for _, k := range keys {
				l.allowSource(k, now)
			}
			best = min(best, float64(time.Since(start).Nanoseconds())/float64(len(keys)))
		}
		if n := len(l.sources); n != capacity {
			t.Fatalf("table of capacity %d holds %d sources", capacity, n)
		}
		return best
	}
	small, large := nsPerNewSource(64), nsPerNewSource(DefaultMaxSources)
	t.Logf("new source at capacity: %.0f ns at 64 entries, %.0f ns at %d", small, large, DefaultMaxSources)
	if large > 4*small {
		t.Errorf("a new source costs %.0f ns in a full table of %d but %.0f ns in one of 64: recycling scans the table",
			large, DefaultMaxSources, small)
	}
}
