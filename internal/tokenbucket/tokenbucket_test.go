package tokenbucket

import "testing"

func TestRefill(t *testing.T) {
	now := 1000.0
	b := Full(2, now)
	const rate, burst = 10, 2
	if !b.Allow(now, rate, burst, 1) || !b.Allow(now, rate, burst, 1) {
		t.Fatal("burst tokens refused")
	}
	if b.Allow(now, rate, burst, 1) {
		t.Fatal("empty bucket allowed")
	}
	// 100 ms at 10/s refills one token.
	now += 0.1
	if !b.Allow(now, rate, burst, 1) {
		t.Fatal("refilled token refused")
	}
	if b.Allow(now, rate, burst, 1) {
		t.Fatal("over-refilled")
	}
	// Refill never exceeds burst.
	now += 3600
	if !b.Allow(now, rate, burst, 2) {
		t.Fatal("burst after idle refused")
	}
	if b.Allow(now, rate, burst, 1) {
		t.Fatal("bucket exceeded burst after idle")
	}
}

// TestCostAboveOne charges in bytes, as the agent's global budget does: a
// charge larger than the tokens held takes nothing.
func TestCostAboveOne(t *testing.T) {
	b := Full(1000, 0)
	if !b.Allow(0, 1000, 1000, 800) {
		t.Fatal("charge within budget refused")
	}
	if b.Allow(0, 1000, 1000, 800) {
		t.Fatal("charge over budget allowed")
	}
	if b.Tokens != 200 {
		t.Fatalf("a refused charge spent tokens: %v left, want 200", b.Tokens)
	}
	if !b.Allow(0.6, 1000, 1000, 800) {
		t.Fatal("refilled budget refused")
	}
	if b.Tokens != 0 {
		t.Fatalf("%v tokens left, want 0", b.Tokens)
	}
}

// TestNoRefillWithoutElapsedTime charges at Last and at a reading before
// it: neither refills, and neither moves Last.
func TestNoRefillWithoutElapsedTime(t *testing.T) {
	for _, now := range []float64{5, 4} {
		b := Bucket{Tokens: 0.5, Last: 5}
		if b.Allow(now, 100, 10, 1) {
			t.Errorf("at %v: half a token paid for a whole one", now)
		}
		if b != (Bucket{Tokens: 0.5, Last: 5}) {
			t.Errorf("at %v: bucket became %+v, want it unchanged", now, b)
		}
	}
}

func TestBurst(t *testing.T) {
	if got := Burst(500, 0); got != 1000 {
		t.Errorf("Burst(500, 0) = %v, want 1000", got)
	}
	if got := Burst(8, -1); got != 16 {
		t.Errorf("Burst(8, -1) = %v, want 16", got)
	}
	if got := Burst(8, 3); got != 3 {
		t.Errorf("Burst(8, 3) = %v, want 3", got)
	}
}
