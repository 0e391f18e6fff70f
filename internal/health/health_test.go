package health

import (
	"math"
	"testing"
)

func TestFailureRaisesSuspicionAndPenalty(t *testing.T) {
	m := New(Config{})
	if got := m.Suspicion(7); got != 0 {
		t.Fatalf("fresh map suspicion = %v, want 0", got)
	}
	if got := m.Penalty(7); got != 1 {
		t.Fatalf("fresh map penalty = %v, want 1", got)
	}
	m.ObserveFailure([]int{7, 9})
	if got := m.Suspicion(7); got != 1 {
		t.Errorf("suspicion after one failure = %v, want FailBump=1", got)
	}
	wantPen := 1 + penaltyWeight*1.0
	if got := m.Penalty(9); got != wantPen {
		t.Errorf("penalty = %v, want %v", got, wantPen)
	}
	// Unobserved buildings stay clean.
	if got := m.Suspicion(8); got != 0 {
		t.Errorf("uninvolved building suspicion = %v, want 0", got)
	}
}

func TestSuspicionDecaysExponentially(t *testing.T) {
	m := New(Config{DecayTau: 10})
	m.ObserveFailure([]int{3})
	m.Advance(10) // one tau
	got := m.Suspicion(3)
	want := math.Exp(-1)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("after one tau suspicion = %v, want 1/e = %v", got, want)
	}
	m.Advance(1000) // many taus: effectively healed, no control traffic
	if got := m.Suspicion(3); got > 1e-9 {
		t.Errorf("after many taus suspicion = %v, want ~0", got)
	}
	if got := m.Penalty(3); math.Abs(got-1) > 1e-6 {
		t.Errorf("healed penalty = %v, want ~1", got)
	}
}

func TestSuccessRelievesFasterThanDecay(t *testing.T) {
	m := New(Config{DecayTau: 1e9}) // freeze decay; isolate success relief
	m.ObserveFailure([]int{4})
	m.ObserveFailure([]int{4})
	before := m.Suspicion(4)
	m.ObserveSuccess([]int{4})
	after := m.Suspicion(4)
	if after >= before {
		t.Fatalf("success must shrink suspicion: %v -> %v", before, after)
	}
	if math.Abs(after-before*0.25) > 1e-9 {
		t.Errorf("success relief = %v, want %v (successFactor 0.25)", after, before*0.25)
	}
	// Repeated successes clear the entry entirely.
	for i := 0; i < 20; i++ {
		m.ObserveSuccess([]int{4})
	}
	if got := m.Suspicion(4); got != 0 {
		t.Errorf("suspicion after many successes = %v, want 0", got)
	}
}

func TestMaxSuspicionCaps(t *testing.T) {
	m := New(Config{})
	for i := 0; i < 50; i++ {
		m.ObserveFailure([]int{1})
	}
	if got := m.Suspicion(1); got != maxSuspicion {
		t.Errorf("suspicion after 50 failures = %v, want the cap %v", got, maxSuspicion)
	}
}

func TestPenaltyFuncSnapshot(t *testing.T) {
	m := New(Config{})
	if vp := m.PenaltyFunc(); vp != nil {
		t.Fatal("empty map should produce a nil penalty func")
	}
	m.ObserveFailure([]int{5})
	vp := m.PenaltyFunc()
	if vp == nil {
		t.Fatal("non-empty map must produce a penalty func")
	}
	if got := vp(5); got <= 1 {
		t.Errorf("suspect penalty = %v, want > 1", got)
	}
	if got := vp(6); got != 1 {
		t.Errorf("clean penalty = %v, want 1", got)
	}
	// The snapshot is immutable: later observations don't change it.
	m.ObserveFailure([]int{6})
	if got := vp(6); got != 1 {
		t.Errorf("snapshot mutated: penalty(6) = %v", got)
	}
}

func TestSuspectsSortedAndCounted(t *testing.T) {
	m := New(Config{})
	m.ObserveFailure([]int{10})
	m.ObserveFailure([]int{20})
	m.ObserveFailure([]int{20}) // 20 is twice as suspect
	if got := m.SuspectCount(); got != 2 {
		t.Fatalf("SuspectCount = %d, want 2", got)
	}
	s := m.Suspects()
	if len(s) != 2 || s[0].Building != 20 || s[1].Building != 10 {
		t.Errorf("Suspects = %+v, want building 20 first", s)
	}
}

func TestPartitionClassification(t *testing.T) {
	m := New(Config{})
	if m.Partitioned(42) {
		t.Fatal("fresh destination must not be partitioned")
	}
	if got := m.ObserveExhausted(42); got != 1 {
		t.Fatalf("first exhaustion count = %d, want 1", got)
	}
	if m.Partitioned(42) {
		t.Errorf("one exhaustion is below partitionAfter=%d", partitionAfter)
	}
	m.ObserveExhausted(42)
	if !m.Partitioned(42) {
		t.Error("two consecutive exhaustions must classify partitioned")
	}
	// Delivery clears the classification.
	m.ObserveDelivered(42)
	if m.Partitioned(42) {
		t.Error("delivery must clear partition state")
	}
	// Re-probe: the classification lapses after probeAfter sim seconds.
	m.ObserveExhausted(42)
	m.ObserveExhausted(42)
	m.Advance(probeAfter - 0.1)
	if !m.Partitioned(42) {
		t.Error("partition belief lapsed before probeAfter")
	}
	m.Advance(0.2)
	if m.Partitioned(42) {
		t.Error("partition belief must lapse after probeAfter so the destination is re-probed")
	}
}

func TestAdvanceIgnoresNegative(t *testing.T) {
	m := New(Config{})
	m.Advance(3)
	m.Advance(-100)
	if got := m.Now(); got != 3 {
		t.Errorf("Now = %v, want 3 (negative Advance ignored)", got)
	}
}

func TestResetAndString(t *testing.T) {
	m := New(Config{})
	m.ObserveFailure([]int{1, 2})
	m.ObserveExhausted(3)
	m.Reset()
	if m.SuspectCount() != 0 || m.Suspicion(1) != 0 {
		t.Error("Reset must clear suspicion")
	}
	if s := m.String(); s == "" {
		t.Error("String must render")
	}
}
