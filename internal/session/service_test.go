package session

import (
	"fmt"
	"testing"

	"citymesh/internal/postbox"
)

// handle round-trips a request through the wire path and decodes the reply,
// exercising encode/decode on every test interaction.
func handle(t *testing.T, s *Service, m Msg, now float64) Reply {
	t.Helper()
	frame, err := EncodeMsg(m)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	out := s.Handle(frame, now)
	if out == nil {
		t.Fatalf("Handle returned nil for valid frame %+v", m)
	}
	r, err := DecodeReply(out)
	if err != nil {
		t.Fatalf("decode reply: %v", err)
	}
	return r
}

func checkBooks(t *testing.T, s *Service) {
	t.Helper()
	if err := s.Stats().AccountingError(); err != nil {
		t.Fatal(err)
	}
}

// sinkForwarder delivers or drops everything, at a fixed latency.
type sinkForwarder struct {
	deliver bool
	latency float64
	count   int
}

func (f *sinkForwarder) Forward(m *Pending, now float64) Outcome {
	f.count++
	return Outcome{Delivered: f.deliver, Latency: f.latency}
}

func TestSessionLifecycle(t *testing.T) {
	s := New(Config{Building: 5})
	const alice, bob = 1, 2
	if r := handle(t, s, Msg{Type: TAttach, ClientID: alice, Addr: addr(0xA1)}, 0); r.Type != TAccept {
		t.Fatalf("attach: got %+v", r)
	}
	if r := handle(t, s, Msg{Type: TAttach, ClientID: bob, Addr: addr(0xB2)}, 0); r.Type != TAccept {
		t.Fatalf("attach: got %+v", r)
	}

	// Alice sends to Bob, whose postbox is on this same AP (building 5).
	r := handle(t, s, Msg{Type: TSubmit, ClientID: alice, Dst: 5, To: addr(0xB2), Payload: []byte("hi bob")}, 1)
	if r.Type != TAccept {
		t.Fatalf("submit: got %+v", r)
	}
	if got := s.QueueLen(); got != 1 {
		t.Fatalf("queue len %d, want 1", got)
	}

	// Drain stores it locally.
	ds := s.Drain(3, 10, nil)
	if len(ds) != 1 || !ds[0].Delivered || ds[0].Latency != 2 {
		t.Fatalf("drain: %+v", ds)
	}

	// Bob fetches, then acks.
	fr := handle(t, s, Msg{Type: TFetch, ClientID: bob}, 4)
	if fr.Type != TDeliver || len(fr.Msgs) != 1 || string(fr.Msgs[0].Payload) != "hi bob" {
		t.Fatalf("fetch: %+v", fr)
	}
	ar := handle(t, s, Msg{Type: TAck, ClientID: bob, UpToSeq: fr.Msgs[0].Seq}, 5)
	if ar.Type != TAckOK || ar.Remaining != 0 {
		t.Fatalf("ack: %+v", ar)
	}

	st := s.Stats()
	if st.Offered != 1 || st.Accepted != 1 || st.Delivered != 1 || st.Fetched != 1 || st.Acked != 1 {
		t.Fatalf("stats: %+v", st)
	}
	checkBooks(t, s)
}

func TestSubmitWithoutSessionIsAdmissionReject(t *testing.T) {
	s := New(Config{})
	r := handle(t, s, Msg{Type: TSubmit, ClientID: 99, Dst: 1, Payload: []byte("x")}, 0)
	if r.Type != TReject || r.Cause != CauseAdmission {
		t.Fatalf("got %+v, want admission reject", r)
	}
	if st := s.Stats(); st.RejectedAdmission != 1 {
		t.Fatalf("stats: %+v", st)
	}
	checkBooks(t, s)
}

func TestRateLimitCause(t *testing.T) {
	s := New(Config{ClientRate: 1, ClientBurst: 2})
	handle(t, s, Msg{Type: TAttach, ClientID: 1, Addr: addr(1)}, 0)
	var rejected int
	// Distinct payloads: identical resends are deduped before the bucket.
	for i := 0; i < 5; i++ {
		r := handle(t, s, Msg{Type: TSubmit, ClientID: 1, Dst: 1, Payload: []byte{'x', byte(i)}}, 0)
		if r.Type == TReject {
			if r.Cause != CauseRateLimit {
				t.Fatalf("got cause %v, want rate-limit", r.Cause)
			}
			if r.RetryAfterMs == 0 {
				t.Fatal("reject must carry a retry-after hint")
			}
			rejected++
		}
	}
	if rejected != 3 {
		t.Fatalf("rejected %d of 5, want 3 (burst 2)", rejected)
	}
	// Tokens refill with time.
	if r := handle(t, s, Msg{Type: TSubmit, ClientID: 1, Dst: 1, Payload: []byte("refill")}, 10); r.Type != TAccept {
		t.Fatalf("after refill: %+v", r)
	}
	checkBooks(t, s)
}

func TestBufferFullCauses(t *testing.T) {
	// Per-client send buffer first.
	s := New(Config{SendBufCap: 2, QueueCap: 100, ClientRate: 1000, ClientBurst: 1000})
	handle(t, s, Msg{Type: TAttach, ClientID: 1, Addr: addr(1)}, 0)
	for i := 0; i < 2; i++ {
		if r := handle(t, s, Msg{Type: TSubmit, ClientID: 1, Dst: 1, Payload: []byte{'x', byte(i)}}, 0); r.Type != TAccept {
			t.Fatalf("submit %d: %+v", i, r)
		}
	}
	r := handle(t, s, Msg{Type: TSubmit, ClientID: 1, Dst: 1, Payload: []byte("overflow")}, 0)
	if r.Type != TReject || r.Cause != CauseBufferFull {
		t.Fatalf("send-buffer overflow: got %+v", r)
	}

	// AP-wide queue cap next: many clients, one-slot queue each side. A
	// queue of 3 turns congested at its second message, so every submit
	// carries a solved one-bit proof: this test sees only the buffer cause,
	// not admission PoW.
	s2 := New(Config{SendBufCap: 10, QueueCap: 3, ClientRate: 1000, ClientBurst: 1000,
		PowBitsCongested: 1, PowBitsOverload: 1})
	var bufferFull int
	for c := uint64(1); c <= 5; c++ {
		handle(t, s2, Msg{Type: TAttach, ClientID: c, Addr: addr(byte(c))}, 0)
		nonce, ok := SolvePoW(c, postbox.Address{}, []byte("x"), 1, 0)
		if !ok {
			t.Fatal("solve failed")
		}
		if r := handle(t, s2, Msg{Type: TSubmit, ClientID: c, Dst: 1, PowNonce: nonce, Payload: []byte("x")}, 0); r.Type == TReject {
			if r.Cause != CauseBufferFull {
				t.Fatalf("client %d: got cause %v, want buffer-full", c, r.Cause)
			}
			bufferFull++
		}
	}
	if bufferFull != 2 {
		t.Fatalf("buffer-full rejections %d, want 2 (cap 3 of 5)", bufferFull)
	}
	checkBooks(t, s)
	checkBooks(t, s2)
}

func TestTierEscalationDemandsPow(t *testing.T) {
	s := New(Config{QueueCap: 10,
		PowBitsCongested: 4, PowBitsOverload: 8,
		ClientRate: 1000, ClientBurst: 1000, SendBufCap: 100})
	handle(t, s, Msg{Type: TAttach, ClientID: 1, Addr: addr(1)}, 0)

	if tier, bits, _ := s.Advice(0); tier != TierNormal || bits != 0 {
		t.Fatalf("empty queue: tier %v bits %d", tier, bits)
	}
	// Fill to congestion threshold: 5 of 10 (distinct payloads, or the
	// dedup window would collapse them into one).
	for i := 0; i < 5; i++ {
		if r := handle(t, s, Msg{Type: TSubmit, ClientID: 1, Dst: 1, Payload: []byte{'x', byte(i)}}, 0); r.Type != TAccept {
			t.Fatalf("fill %d: %+v", i, r)
		}
	}
	tier, bits, headroom := s.Advice(0)
	if tier != TierCongested || bits != 4 || headroom != 5 {
		t.Fatalf("at 5/10: tier %v bits %d headroom %d", tier, bits, headroom)
	}

	// A submit without proof is now refused as admission.
	payload := []byte("no proof")
	r := handle(t, s, Msg{Type: TSubmit, ClientID: 1, Dst: 1, To: addr(2), Payload: payload}, 0)
	if r.Type != TReject || r.Cause != CauseAdmission || r.PowBits != 4 {
		t.Fatalf("unsolved submit at congested: %+v", r)
	}

	// The same submit with a solved nonce is admitted.
	nonce, ok := SolvePoW(1, addr(2), payload, int(bits), 0)
	if !ok {
		t.Fatal("solve failed")
	}
	r = handle(t, s, Msg{Type: TSubmit, ClientID: 1, Dst: 1, To: addr(2), PowNonce: nonce, Payload: payload}, 0)
	if r.Type != TAccept {
		t.Fatalf("solved submit at congested: %+v", r)
	}

	// Push to overload: difficulty rises again.
	for s.QueueLen() < 9 {
		p := []byte(fmt.Sprintf("fill-%d", s.QueueLen()))
		n, _ := SolvePoW(1, addr(2), p, 4, 0)
		if r := handle(t, s, Msg{Type: TSubmit, ClientID: 1, Dst: 1, To: addr(2), PowNonce: n, Payload: p}, 0); r.Type != TAccept {
			t.Fatalf("fill to overload: %+v", r)
		}
	}
	if tier, bits, _ := s.Advice(0); tier != TierOverload || bits != 8 {
		t.Fatalf("at 9/10: tier %v bits %d", tier, bits)
	}
	if st := s.Stats(); st.PeakTier != TierOverload {
		t.Fatalf("peak tier %v, want overload", st.PeakTier)
	}
	checkBooks(t, s)
}

func TestSessionTableRecyclesStalest(t *testing.T) {
	s := New(Config{})
	handle(t, s, Msg{Type: TAttach, ClientID: 1, Addr: addr(1)}, 0)
	for c := uint64(2); c <= maxSessions; c++ {
		handle(t, s, Msg{Type: TAttach, ClientID: c, Addr: addr(byte(c))}, 5)
	}
	// One more client attaches at capacity: client 1 (stalest, idle) is
	// recycled.
	if r := handle(t, s, Msg{Type: TAttach, ClientID: maxSessions + 1, Addr: addr(3)}, 10); r.Type != TAccept {
		t.Fatalf("attach at capacity: %+v", r)
	}
	if st := s.Stats(); st.Attached != maxSessions {
		t.Fatalf("attached %d, want %d", st.Attached, maxSessions)
	}
	// Client 1's session is gone: its submit is an admission reject.
	if r := handle(t, s, Msg{Type: TSubmit, ClientID: 1, Dst: 1, Payload: []byte("x")}, 11); r.Cause != CauseAdmission {
		t.Fatalf("recycled client submit: %+v", r)
	}
	checkBooks(t, s)
}

func TestAttachRefusedWhenAllSessionsBusy(t *testing.T) {
	// A queue of four times the session table stays below congestion while
	// every session queues one message.
	s := New(Config{QueueCap: 4 * maxSessions, ClientRate: 1000, ClientBurst: 1000})
	for c := uint64(1); c <= maxSessions; c++ {
		handle(t, s, Msg{Type: TAttach, ClientID: c, Addr: addr(byte(c))}, 0)
		if r := handle(t, s, Msg{Type: TSubmit, ClientID: c, Dst: 1, Payload: []byte("x")}, 0); r.Type != TAccept {
			t.Fatalf("client %d submit: %+v", c, r)
		}
	}
	if r := handle(t, s, Msg{Type: TAttach, ClientID: maxSessions + 1, Addr: addr(3)}, 1); r.Type != TReject || r.Cause != CauseAdmission {
		t.Fatalf("attach with all sessions busy: %+v", r)
	}
}

func TestDrainForwarderOutcomes(t *testing.T) {
	s := New(Config{Building: 0, ClientRate: 1000, ClientBurst: 1000})
	handle(t, s, Msg{Type: TAttach, ClientID: 1, Addr: addr(1)}, 0)
	for i := 0; i < 4; i++ {
		// Distinct payloads: identical resubmissions would be deduped.
		handle(t, s, Msg{Type: TSubmit, ClientID: 1, Dst: 7, Payload: []byte{'r', byte(i)}}, 0)
	}
	// First two deliver through the forwarder, with transport latency added.
	fwd := &sinkForwarder{deliver: true, latency: 0.5}
	ds := s.Drain(2, 2, fwd)
	if len(ds) != 2 || !ds[0].Delivered || ds[0].Latency != 2.5 {
		t.Fatalf("delivering drain: %+v", ds)
	}
	// Remaining two hit a dead network.
	fwd.deliver = false
	ds = s.Drain(3, 10, fwd)
	if len(ds) != 2 || ds[0].Delivered || ds[1].Delivered {
		t.Fatalf("exhausted drain: %+v", ds)
	}
	st := s.Stats()
	if st.Delivered != 2 || st.DroppedNetworkExhausted != 2 || st.Queued != 0 {
		t.Fatalf("stats: %+v", st)
	}
	checkBooks(t, s)
}

func TestFetchWindowBounded(t *testing.T) {
	s := New(Config{Building: 0})
	handle(t, s, Msg{Type: TAttach, ClientID: 1, Addr: addr(0xCC)}, 0)
	for i := 0; i < 2*recvBufCap+2; i++ {
		s.Store().Put(addr(0xCC), []byte{byte(i)}, false)
	}
	r := handle(t, s, Msg{Type: TFetch, ClientID: 1}, 1)
	if len(r.Msgs) != recvBufCap {
		t.Fatalf("fetch window: got %d msgs, want %d", len(r.Msgs), recvBufCap)
	}
	// Acking advances the window to the next one.
	handle(t, s, Msg{Type: TAck, ClientID: 1, UpToSeq: r.Msgs[recvBufCap-1].Seq}, 2)
	r2 := handle(t, s, Msg{Type: TFetch, ClientID: 1}, 3)
	if len(r2.Msgs) != recvBufCap || r2.Msgs[0].Seq <= r.Msgs[recvBufCap-1].Seq {
		t.Fatalf("post-ack fetch: %+v", r2.Msgs)
	}
}

func TestHandleMalformedCounted(t *testing.T) {
	s := New(Config{})
	if out := s.Handle([]byte{0x01, 0x02}, 0); out != nil {
		t.Fatalf("malformed frame produced a reply: %x", out)
	}
	if st := s.Stats(); st.Malformed != 1 || st.Offered != 0 {
		t.Fatalf("stats: %+v", st)
	}
}
