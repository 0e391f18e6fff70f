package session

import (
	"testing"
)

// FuzzHandle drives the session wire boundary — decode plus dispatch —
// with arbitrary client frames. The service must absorb anything: no
// panics, every frame either produces a decodable reply or increments the
// malformed counter, and the accounting partition holds after every frame.
func FuzzHandle(f *testing.F) {
	seed := func(m Msg) []byte {
		frame, err := EncodeMsg(m)
		if err != nil {
			f.Fatal(err)
		}
		return frame
	}
	f.Add(seed(Msg{Type: TAttach, ClientID: 7, Addr: addr(0x11)}))
	f.Add(seed(Msg{Type: TSubmit, ClientID: 7, Dst: 3, To: addr(0x22), PowNonce: 5, Payload: []byte("seed")}))
	f.Add(seed(Msg{Type: TFetch, ClientID: 7, AfterSeq: 2}))
	f.Add(seed(Msg{Type: TAck, ClientID: 7, UpToSeq: 4}))
	f.Add([]byte{Magic, Version, TSubmit})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, frame []byte) {
		s := New(Config{QueueCap: 4, SendBufCap: 2})
		// Pre-attach the common seed client so submits can reach the
		// deeper accept/enqueue paths, then replay the frame twice.
		s.Attach(7, addr(0x11), 0)
		for i := 0; i < 2; i++ {
			out := s.Handle(frame, float64(i))
			if out != nil {
				if _, err := DecodeReply(out); err != nil {
					t.Fatalf("reply does not decode: %v (% x)", err, out)
				}
			}
		}
		st := s.Stats()
		if err := st.AccountingError(); err != nil {
			t.Fatal(err)
		}
		// Drain whatever was accepted into the void and re-check.
		s.Drain(10, 100, nil)
		if err := s.Stats().AccountingError(); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzDecodeReply checks the client-side decoder against arbitrary bytes
// and round-trips anything it accepts.
func FuzzDecodeReply(f *testing.F) {
	acc, _ := EncodeReply(Reply{Type: TAccept, Tier: TierCongested, PowBits: 8, Headroom: 10})
	rej, _ := EncodeReply(Reply{Type: TReject, Cause: CauseBufferFull, Tier: TierOverload, PowBits: 12, RetryAfterMs: 2000})
	del, _ := EncodeReply(Reply{Type: TDeliver, Msgs: []DeliverMsg{{Seq: 3, Payload: []byte("m")}}})
	f.Add(acc)
	f.Add(rej)
	f.Add(del)
	f.Fuzz(func(t *testing.T, frame []byte) {
		r, err := DecodeReply(frame)
		if err != nil {
			return
		}
		re, err := EncodeReply(r)
		if err != nil {
			t.Fatalf("decoded reply does not re-encode: %v (%+v)", err, r)
		}
		r2, err := DecodeReply(re)
		if err != nil {
			t.Fatalf("re-encoded reply does not decode: %v", err)
		}
		if r2.Type != r.Type || len(r2.Msgs) != len(r.Msgs) {
			t.Fatalf("round-trip mismatch: %+v vs %+v", r, r2)
		}
	})
}
