package session

import (
	"fmt"
	"testing"
)

func TestResubmitIsDedupedNotRequeued(t *testing.T) {
	s := New(Config{Building: 5})
	handle(t, s, Msg{Type: TAttach, ClientID: 1, Addr: addr(0xA1)}, 0)

	m := Msg{Type: TSubmit, ClientID: 1, Dst: 9, To: addr(0xB2), Payload: []byte("are you ok?")}
	if r := handle(t, s, m, 1); r.Type != TAccept {
		t.Fatalf("first submit: %+v", r)
	}
	// The TAccept was lost on the client's link; it resends verbatim.
	for i := 0; i < 3; i++ {
		if r := handle(t, s, m, 2+float64(i)); r.Type != TAccept {
			t.Fatalf("resubmit %d must be answered idempotently: %+v", i, r)
		}
	}
	if got := s.QueueLen(); got != 1 {
		t.Fatalf("queue holds %d copies, want 1", got)
	}
	st := s.Stats()
	if st.Accepted != 1 || st.Deduped != 3 || st.Offered != 4 {
		t.Fatalf("stats: %+v", st)
	}
	checkBooks(t, s)

	// Different content from the same client is a new message.
	m2 := m
	m2.Payload = []byte("still there?")
	if r := handle(t, s, m2, 5); r.Type != TAccept {
		t.Fatalf("new content: %+v", r)
	}
	if got := s.QueueLen(); got != 2 {
		t.Fatalf("queue %d, want 2", got)
	}
	checkBooks(t, s)
}

func TestDedupDoesNotChargeRateLimit(t *testing.T) {
	s := New(Config{ClientRate: 0.001, ClientBurst: 2})
	handle(t, s, Msg{Type: TAttach, ClientID: 7, Addr: addr(1)}, 0)
	m := Msg{Type: TSubmit, ClientID: 7, Dst: 3, To: addr(2), Payload: []byte("x")}
	if r := handle(t, s, m, 0); r.Type != TAccept {
		t.Fatalf("first: %+v", r)
	}
	// Many resends: none consume tokens, all answered TAccept.
	for i := 0; i < 10; i++ {
		if r := handle(t, s, m, 0.1); r.Type != TAccept {
			t.Fatalf("resend %d: %+v", i, r)
		}
	}
	// The bucket still has its second token for fresh content.
	m.Payload = []byte("y")
	if r := handle(t, s, m, 0.2); r.Type != TAccept {
		t.Fatalf("fresh content after resends should still have a token: %+v", r)
	}
	checkBooks(t, s)
}

func TestDedupWindowExpires(t *testing.T) {
	s := New(Config{DedupWindowS: 10})
	handle(t, s, Msg{Type: TAttach, ClientID: 1, Addr: addr(1)}, 0)
	m := Msg{Type: TSubmit, ClientID: 1, Dst: 3, To: addr(2), Payload: []byte("good morning")}
	if r := handle(t, s, m, 0); r.Type != TAccept {
		t.Fatalf("first: %+v", r)
	}
	if handle(t, s, m, 9.9); s.Stats().Deduped != 1 {
		t.Fatalf("in-window resend not deduped: %+v", s.Stats())
	}
	// The same greeting a day later is a genuinely new message.
	if r := handle(t, s, m, 86400); r.Type != TAccept {
		t.Fatalf("post-window submit: %+v", r)
	}
	st := s.Stats()
	if st.Accepted != 2 || st.Deduped != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if got := s.QueueLen(); got != 2 {
		t.Fatalf("queue %d, want 2", got)
	}
	checkBooks(t, s)
}

func TestDedupOnlyCoversAcceptedMessages(t *testing.T) {
	// A buffer-full rejection must not poison the window: the retry after
	// drain succeeds instead of being swallowed as a duplicate.
	// Thresholds above 1.0 keep the tier normal: this test wants the
	// buffer-full cause, not admission PoW.
	s := New(Config{QueueCap: 1, CongestedAt: 2, OverloadAt: 3})
	handle(t, s, Msg{Type: TAttach, ClientID: 1, Addr: addr(1)}, 0)
	fill := Msg{Type: TSubmit, ClientID: 1, Dst: 3, To: addr(2), Payload: []byte("first")}
	if r := handle(t, s, fill, 0); r.Type != TAccept {
		t.Fatalf("fill: %+v", r)
	}
	m := fill
	m.Payload = []byte("second")
	if r := handle(t, s, m, 1); r.Type != TReject || r.Cause != CauseBufferFull {
		t.Fatalf("want buffer-full reject, got %+v", r)
	}
	s.Drain(2, 10, &sinkForwarder{deliver: true})
	if r := handle(t, s, m, 3); r.Type != TAccept {
		t.Fatalf("retry after drain must be accepted, got %+v", r)
	}
	if st := s.Stats(); st.Deduped != 0 || st.Accepted != 2 {
		t.Fatalf("stats: %+v", st)
	}
	checkBooks(t, s)
}

func TestDedupDisabledByNegativeCap(t *testing.T) {
	s := New(Config{DedupCap: -1})
	handle(t, s, Msg{Type: TAttach, ClientID: 1, Addr: addr(1)}, 0)
	m := Msg{Type: TSubmit, ClientID: 1, Dst: 3, To: addr(2), Payload: []byte("x")}
	handle(t, s, m, 0)
	handle(t, s, m, 1)
	if st := s.Stats(); st.Deduped != 0 || st.Accepted != 2 {
		t.Fatalf("disabled dedup still suppressed: %+v", st)
	}
	if got := s.QueueLen(); got != 2 {
		t.Fatalf("queue %d, want 2", got)
	}
	checkBooks(t, s)
}

func TestDedupWindowBounded(t *testing.T) {
	s := New(Config{DedupCap: 8, QueueCap: 4096, SendBufCap: 4096, ClientRate: 1e9, ClientBurst: 1e9})
	handle(t, s, Msg{Type: TAttach, ClientID: 1, Addr: addr(1)}, 0)
	for i := 0; i < 100; i++ {
		m := Msg{Type: TSubmit, ClientID: 1, Dst: 3, To: addr(2),
			Payload: []byte(fmt.Sprintf("msg %d", i))}
		if r := handle(t, s, m, float64(i)); r.Type != TAccept {
			t.Fatalf("submit %d: %+v", i, r)
		}
	}
	if n := s.recent.at.Len(); n != 8 {
		t.Fatalf("window grew to %d entries, cap is 8", n)
	}
	// The newest entry is still deduped; the oldest was evicted, so its
	// resend is accepted as fresh (and that is fine — the queue-level
	// consequence is one extra copy, not corruption).
	newest := Msg{Type: TSubmit, ClientID: 1, Dst: 3, To: addr(2), Payload: []byte("msg 99")}
	if handle(t, s, newest, 100); s.Stats().Deduped != 1 {
		t.Fatalf("newest entry lost from bounded window: %+v", s.Stats())
	}
	checkBooks(t, s)
}
