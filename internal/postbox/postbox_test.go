package postbox

import (
	"bytes"
	"crypto/rand"
	"errors"
	"strconv"
	"testing"
)

func mustIdentity(t testing.TB) *Identity {
	t.Helper()
	id, err := NewIdentity(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestAddressSelfCertifying(t *testing.T) {
	id := mustIdentity(t)
	pub := id.Public()
	if !pub.Verify(id.Address()) {
		t.Error("public identity must verify its own address")
	}
	other := mustIdentity(t)
	if other.Public().Verify(id.Address()) {
		t.Error("a different identity must not verify the address")
	}
	if id.Address().String() == "" || len(id.Address().String()) != 16 {
		t.Errorf("address hex = %q", id.Address().String())
	}
}

func TestPublicIdentityEncodeDecode(t *testing.T) {
	id := mustIdentity(t)
	enc := id.Public().Encode()
	if len(enc) != 64 {
		t.Fatalf("encoded length = %d", len(enc))
	}
	dec, err := DecodePublicIdentity(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Address() != id.Address() {
		t.Error("decode changed the address")
	}
	if _, err := DecodePublicIdentity(enc[:63]); err == nil {
		t.Error("short encoding should error")
	}
}

func TestPostboxInfoRoundTrip(t *testing.T) {
	id := mustIdentity(t)
	info := PostboxInfo{Identity: id.Public(), Building: 123456}
	enc := EncodePostboxInfo(info)
	if len(enc) != 68 {
		t.Fatalf("info length = %d", len(enc))
	}
	dec, err := DecodePostboxInfo(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Building != 123456 || dec.Identity.Address() != id.Address() {
		t.Errorf("decoded = %+v", dec)
	}
	if _, err := DecodePostboxInfo(enc[:10]); err == nil {
		t.Error("short info should error")
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	alice := mustIdentity(t)
	bob := mustIdentity(t)
	msg := []byte("bob, are you safe? meet at the library")
	sealed, err := Seal(rand.Reader, alice, bob.Public(), msg)
	if err != nil {
		t.Fatal(err)
	}
	got, sender, err := Open(bob, sealed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("plaintext = %q", got)
	}
	if sender.Address() != alice.Address() {
		t.Error("sender identity mismatch")
	}
}

func TestSealHidesSender(t *testing.T) {
	alice := mustIdentity(t)
	bob := mustIdentity(t)
	sealed, err := Seal(rand.Reader, alice, bob.Public(), []byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	alicePub := alice.Public().Encode()
	if bytes.Contains(sealed, alicePub[:16]) {
		t.Error("sender public key visible in sealed message")
	}
	if bytes.Contains(sealed, []byte("secret")) {
		t.Error("plaintext visible in sealed message")
	}
}

func TestOpenWrongRecipient(t *testing.T) {
	alice := mustIdentity(t)
	bob := mustIdentity(t)
	eve := mustIdentity(t)
	sealed, _ := Seal(rand.Reader, alice, bob.Public(), []byte("for bob"))
	if _, _, err := Open(eve, sealed); !errors.Is(err, ErrDecrypt) {
		t.Errorf("eve open = %v, want ErrDecrypt", err)
	}
}

func TestOpenTamperDetected(t *testing.T) {
	alice := mustIdentity(t)
	bob := mustIdentity(t)
	sealed, _ := Seal(rand.Reader, alice, bob.Public(), []byte("original"))
	for _, idx := range []int{0, 33, len(sealed) - 1} {
		bad := append([]byte(nil), sealed...)
		bad[idx] ^= 0x01
		if _, _, err := Open(bob, bad); err == nil {
			t.Errorf("tamper at %d undetected", idx)
		}
	}
	if _, _, err := Open(bob, sealed[:10]); !errors.Is(err, ErrDecrypt) {
		t.Errorf("truncated = %v", err)
	}
}

func TestSealDistinctCiphertexts(t *testing.T) {
	alice := mustIdentity(t)
	bob := mustIdentity(t)
	a, _ := Seal(rand.Reader, alice, bob.Public(), []byte("x"))
	b, _ := Seal(rand.Reader, alice, bob.Public(), []byte("x"))
	if bytes.Equal(a, b) {
		t.Error("sealing twice should not repeat ciphertext (ephemeral keys)")
	}
}

func TestStorePutRetrieveAck(t *testing.T) {
	s := NewStore()
	var addr Address
	addr[0] = 7
	s.Put(addr, []byte("m1"), false)
	s.Put(addr, []byte("m2"), false)
	s.Put(addr, []byte("m3"), false)
	if s.Len(addr) != 3 {
		t.Fatalf("Len = %d", s.Len(addr))
	}
	msgs := s.Retrieve(addr, 0, 42)
	if len(msgs) != 3 || string(msgs[0].Sealed) != "m1" {
		t.Fatalf("Retrieve = %v", msgs)
	}
	// Incremental retrieve.
	if got := s.Retrieve(addr, msgs[1].Seq, 42); len(got) != 1 || string(got[0].Sealed) != "m3" {
		t.Errorf("incremental = %v", got)
	}
	// Location cached.
	if b, ok := s.LastSeen(addr); !ok || b != 42 {
		t.Errorf("LastSeen = %d, %v", b, ok)
	}
	// Ack drops acknowledged prefix.
	s.Ack(addr, msgs[1].Seq)
	if s.Len(addr) != 1 {
		t.Errorf("after Ack Len = %d", s.Len(addr))
	}
	s.Ack(addr, msgs[2].Seq)
	if s.Len(addr) != 0 {
		t.Errorf("after full Ack Len = %d", s.Len(addr))
	}
	// Ack of already-acked seq is a no-op.
	s.Ack(addr, 1)
}

func TestStoreCapacityEviction(t *testing.T) {
	s := NewStore()
	var addr Address
	for i := 0; i <= maxPerBox; i++ {
		s.Put(addr, []byte(strconv.Itoa(i)), false)
	}
	msgs := s.Retrieve(addr, 0, 0)
	if len(msgs) != maxPerBox || string(msgs[0].Sealed) != "1" {
		t.Errorf("eviction kept %d messages from %q, want %d from \"1\"", len(msgs), msgs[0].Sealed, maxPerBox)
	}
}

func TestStorePushNotification(t *testing.T) {
	var pushed []int
	s := NewStore(WithPush(func(msg StoredMessage, last int) {
		pushed = append(pushed, last)
	}))
	var addr Address
	// No location cached yet: no push.
	s.Put(addr, []byte("urgent1"), true)
	if len(pushed) != 0 {
		t.Fatal("push without location")
	}
	// Device checks in from building 9; next urgent message pushes.
	s.Retrieve(addr, 0, 9)
	s.Put(addr, []byte("urgent2"), true)
	if len(pushed) != 1 || pushed[0] != 9 {
		t.Errorf("pushed = %v", pushed)
	}
	// Non-urgent messages never push.
	s.Put(addr, []byte("normal"), false)
	if len(pushed) != 1 {
		t.Error("non-urgent pushed")
	}
}

func TestStoreIsolationBetweenBoxes(t *testing.T) {
	s := NewStore()
	var a, b Address
	b[7] = 0xff
	s.Put(a, []byte("for a"), false)
	if got := s.Retrieve(b, 0, 0); len(got) != 0 {
		t.Errorf("cross-box leak: %v", got)
	}
}

func TestStoredMessageCopied(t *testing.T) {
	s := NewStore()
	var addr Address
	buf := []byte("mutable")
	s.Put(addr, buf, false)
	buf[0] = 'X'
	got := s.Retrieve(addr, 0, 0)
	if string(got[0].Sealed) != "mutable" {
		t.Error("store aliases caller buffer")
	}
}

func BenchmarkSeal(b *testing.B) {
	alice := mustIdentity(b)
	bob := mustIdentity(b)
	msg := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Seal(rand.Reader, alice, bob.Public(), msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpen(b *testing.B) {
	alice := mustIdentity(b)
	bob := mustIdentity(b)
	sealed, _ := Seal(rand.Reader, alice, bob.Public(), make([]byte, 256))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Open(bob, sealed); err != nil {
			b.Fatal(err)
		}
	}
}
