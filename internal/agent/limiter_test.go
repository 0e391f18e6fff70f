package agent

import (
	"fmt"
	"testing"
	"time"
)

// TestLimiterDisabled turns both budgets off: with a negative per-source
// rate and no byte budget every frame passes, however large or frequent.
func TestLimiterDisabled(t *testing.T) {
	l := newLimiter(-1, 0, 0, 0)
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
	l := newLimiter(10, 10, 0, 0)
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

func TestLimiterGlobalByteBudget(t *testing.T) {
	now := time.Unix(3000, 0)
	l := newLimiter(-1, 0, 1000, 1000)
	if !l.allowBytes(800, now) {
		t.Fatal("within budget refused")
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
	l := newLimiter(10, 10, 0, 0)
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
