package apps

import (
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"testing"

	"citymesh/internal/citygen"
	"citymesh/internal/core"
	"citymesh/internal/geo"
	"citymesh/internal/postbox"
	"citymesh/internal/sim"
)

func authority(t testing.TB) (ed25519.PublicKey, ed25519.PrivateKey) {
	t.Helper()
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return pub, priv
}

func TestAlertSignVerifyRoundTrip(t *testing.T) {
	pub, priv := authority(t)
	a := &Alert{Seq: 1, Severity: SeverityCritical, IssuedUnix: 1720000000,
		Body: "Flood warning: move to high ground."}
	SignAlert(a, priv)
	if err := VerifyAlert(a, pub); err != nil {
		t.Fatal(err)
	}
	enc := EncodeAlert(a)
	dec, err := DecodeAlert(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Seq != a.Seq || dec.Severity != a.Severity || dec.Body != a.Body || dec.IssuedUnix != a.IssuedUnix {
		t.Errorf("decoded = %+v", dec)
	}
	if err := VerifyAlert(dec, pub); err != nil {
		t.Errorf("decoded alert fails verify: %v", err)
	}
}

func TestAlertForgeryRejected(t *testing.T) {
	pub, priv := authority(t)
	_, evilPriv := authority(t)
	a := &Alert{Seq: 1, Severity: SeverityInfo, Body: "all clear"}
	SignAlert(a, evilPriv)
	if err := VerifyAlert(a, pub); !errors.Is(err, ErrAlertSignature) {
		t.Errorf("forged alert verified: %v", err)
	}
	// Tampered body.
	SignAlert(a, priv)
	a.Body = "evacuate now (forged)"
	if err := VerifyAlert(a, pub); err == nil {
		t.Error("tampered alert verified")
	}
}

func TestAlertReceiverReplay(t *testing.T) {
	pub, priv := authority(t)
	r := NewAlertReceiver(pub)
	mk := func(seq uint64, body string) []byte {
		a := &Alert{Seq: seq, Severity: SeverityWarning, Body: body}
		SignAlert(a, priv)
		return EncodeAlert(a)
	}
	if _, err := r.Accept(mk(5, "first")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Accept(mk(5, "replay")); !errors.Is(err, ErrAlertReplay) {
		t.Errorf("replay accepted: %v", err)
	}
	if _, err := r.Accept(mk(4, "older")); !errors.Is(err, ErrAlertReplay) {
		t.Errorf("older accepted: %v", err)
	}
	if _, err := r.Accept(mk(6, "newer")); err != nil {
		t.Errorf("newer rejected: %v", err)
	}
	if _, err := r.Accept([]byte("junk")); err == nil {
		t.Error("junk accepted")
	}
}

func TestAlertDecodeErrors(t *testing.T) {
	if _, err := DecodeAlert(nil); err == nil {
		t.Error("nil decode should error")
	}
	if _, err := DecodeAlert([]byte{0, 0, 0, 200, 1, 2}); err == nil {
		t.Error("truncated decode should error")
	}
}

func TestSeverityString(t *testing.T) {
	for s, want := range map[Severity]string{
		SeverityInfo: "info", SeverityWarning: "warning",
		SeverityCritical: "critical", Severity(9): "unknown",
	} {
		if s.String() != want {
			t.Errorf("String(%d) = %q", s, s.String())
		}
	}
}

func appsNetwork(t testing.TB, seed int64) *core.Network {
	t.Helper()
	n, err := core.FromSpec(citygen.SmallTestSpec(seed), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestGeocastCoverage(t *testing.T) {
	n := appsNetwork(t, 201)
	// Target: a disc in the downtown area; source: any building outside it.
	center := geo.Pt(400, 300)
	radius := 120.0
	src := -1
	pairs, err := n.RandomPairs(1, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if n.City.Buildings[p[0]].Centroid.Dist(center) > radius*2 {
			anchor := n.Graph.NearestBuilding(center)
			if n.Reachable(p[0], anchor) {
				if _, err := n.PlanRoute(p[0], anchor); err == nil {
					src = p[0]
					break
				}
			}
		}
	}
	if src < 0 {
		t.Skip("no suitable source")
	}
	res, err := Geocast(n, src, center, radius, []byte("water distribution at city hall"), sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.APsInArea == 0 {
		t.Fatal("no APs in target area")
	}
	if res.Coverage() < 0.5 {
		t.Errorf("coverage = %.2f with %d/%d APs", res.Coverage(), res.APsCovered, res.APsInArea)
	}
	if res.Broadcasts == 0 {
		t.Error("no broadcasts")
	}
}

func TestGeocastErrors(t *testing.T) {
	n := appsNetwork(t, 202)
	if _, err := Geocast(n, 0, geo.Pt(0, 0), -5, nil, sim.DefaultConfig()); err == nil {
		t.Error("negative radius should error")
	}
}

func TestGeocastResultCoverageZero(t *testing.T) {
	if (GeocastResult{}).Coverage() != 0 {
		t.Error("empty coverage should be 0")
	}
}

func TestPollSignVerifyRoundTrip(t *testing.T) {
	id, err := postbox.NewIdentity(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	p := SignPoll(id, 7, 42)
	if err := VerifyPoll(p, id.Address()); err != nil {
		t.Fatal(err)
	}
	// Wrong postbox address: self-certification fails.
	other, _ := postbox.NewIdentity(rand.Reader)
	if err := VerifyPoll(p, other.Address()); err == nil {
		t.Error("poll verified against someone else's postbox")
	}
	// Tampered fields invalidate the signature.
	p2 := SignPoll(id, 7, 42)
	p2.AfterSeq = 99
	if err := VerifyPoll(p2, id.Address()); err == nil {
		t.Error("tampered poll verified")
	}
	// Encode round trip.
	dec, err := DecodePoll(EncodePoll(p))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyPoll(dec, id.Address()); err != nil {
		t.Errorf("decoded poll fails verify: %v", err)
	}
	if dec.AfterSeq != 7 || dec.Building != 42 {
		t.Errorf("decoded = %+v", dec)
	}
	if _, err := DecodePoll([]byte("short")); err == nil {
		t.Error("short poll decoded")
	}
}

func TestReplyEncodingRoundTrip(t *testing.T) {
	msgs := []postbox.StoredMessage{
		{Seq: 3, Sealed: []byte("aaa")},
		{Seq: 9, Sealed: []byte("bbbbbb")},
	}
	enc := encodeReply(msgs)
	dec, err := DecodeReply(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 2 || dec[0].Seq != 3 || string(dec[1].Sealed) != "bbbbbb" {
		t.Errorf("decoded = %+v", dec)
	}
	if _, err := DecodeReply(nil); err == nil {
		t.Error("nil reply decoded")
	}
	if _, err := DecodeReply(enc[:5]); err == nil {
		t.Error("truncated reply decoded")
	}
	if got, err := DecodeReply(encodeReply(nil)); err != nil || len(got) != 0 {
		t.Errorf("empty reply = %v, %v", got, err)
	}
}

func TestRetrieveOverMesh(t *testing.T) {
	n := appsNetwork(t, 203)
	bob, err := postbox.NewIdentity(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	alice, err := postbox.NewIdentity(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}

	// Find a device/postbox pair where both directions deliver.
	var deviceB, postboxB int
	found := false
	pairs, err := n.RandomPairs(5, 300)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if !n.Reachable(p[0], p[1]) {
			continue
		}
		r1, err1 := n.Send(p[0], p[1], nil, sim.DefaultConfig())
		r2, err2 := n.Send(p[1], p[0], nil, sim.DefaultConfig())
		if err1 == nil && err2 == nil && r1.Sim.Delivered && r2.Sim.Delivered {
			deviceB, postboxB = p[0], p[1]
			found = true
			break
		}
	}
	if !found {
		t.Skip("no bidirectional pair")
	}

	// Alice leaves two sealed messages in Bob's postbox store.
	store := postbox.NewStore()
	for _, text := range []string{"first", "second"} {
		sealed, err := postbox.Seal(rand.Reader, alice, bob.Public(), []byte(text))
		if err != nil {
			t.Fatal(err)
		}
		store.Put(bob.Address(), sealed, false)
	}

	res, err := Retrieve(n, store, bob, deviceB, postboxB, 0, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.PollDelivered || !res.ReplyDelivered {
		t.Fatalf("round trip failed: %+v", res)
	}
	if len(res.Messages) != 2 {
		t.Fatalf("messages = %d", len(res.Messages))
	}
	// Bob can open what came back.
	for i, m := range res.Messages {
		plain, sender, err := postbox.Open(bob, m.Sealed)
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		if sender.Address() != alice.Address() {
			t.Error("sender mismatch")
		}
		if len(plain) == 0 {
			t.Error("empty plaintext")
		}
	}
	// The store cached Bob's current building for push.
	if b, ok := store.LastSeen(bob.Address()); !ok || b != deviceB {
		t.Errorf("LastSeen = %d, %v", b, ok)
	}
	// Incremental retrieval from the last seq returns nothing new.
	res2, err := Retrieve(n, store, bob, deviceB, postboxB, res.Messages[1].Seq, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res2.PollDelivered && res2.ReplyDelivered && len(res2.Messages) != 0 {
		t.Errorf("incremental retrieve returned %d messages", len(res2.Messages))
	}
}
