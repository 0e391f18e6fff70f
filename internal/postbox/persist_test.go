package postbox

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func addr(b byte) Address {
	var a Address
	a[0] = b
	return a
}

// TestPersistCrashReopen is the core crash-safety property: messages
// accepted before an abrupt death (no Sync, no Close — the store is simply
// abandoned, as SIGKILL would) are all present after OpenDir on the same
// directory.
func TestPersistCrashReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	alice, bob := addr(1), addr(2)
	for i := 0; i < 5; i++ {
		s.Put(alice, []byte(fmt.Sprintf("to alice %d", i)), false)
	}
	s.Put(bob, []byte("to bob"), true)
	// No Sync, no Close: simulate SIGKILL by abandoning the store.

	r, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := r.Retrieve(alice, 0, 0)
	if len(got) != 5 {
		t.Fatalf("alice has %d messages after reopen, want 5", len(got))
	}
	for i, m := range got {
		want := fmt.Sprintf("to alice %d", i)
		if string(m.Sealed) != want {
			t.Errorf("message %d = %q, want %q", i, m.Sealed, want)
		}
		if i > 0 && m.Seq <= got[i-1].Seq {
			t.Errorf("seq not increasing: %d then %d", got[i-1].Seq, m.Seq)
		}
	}
	bobs := r.Retrieve(bob, 0, 0)
	if len(bobs) != 1 || !bobs[0].Urgent {
		t.Fatalf("bob's box = %+v", bobs)
	}
	// Sequence numbers continue past the replayed history.
	next := r.Put(alice, []byte("post-restart"), false)
	if next.Seq <= got[len(got)-1].Seq {
		t.Errorf("post-restart seq %d not above replayed max %d", next.Seq, got[len(got)-1].Seq)
	}
}

func TestPersistAckSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := addr(3)
	var second uint64
	for i := 0; i < 3; i++ {
		m := s.Put(a, []byte{byte(i)}, false)
		if i == 1 {
			second = m.Seq
		}
	}
	s.Ack(a, second)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := r.Retrieve(a, 0, 0)
	if len(got) != 1 || got[0].Sealed[0] != 2 {
		t.Fatalf("after acked reopen: %+v", got)
	}
}

func TestPersistTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := addr(4)
	s.Put(a, []byte("whole one"), false)
	s.Put(a, []byte("whole two"), false)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate power loss mid-append: garbage half-record at the tail.
	logPath := filepath.Join(dir, logName)
	f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 0, 99, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.Stat(logPath)

	r, err := OpenDir(dir)
	if err != nil {
		t.Fatalf("torn tail must not prevent open: %v", err)
	}
	got := r.Retrieve(a, 0, 0)
	if len(got) != 2 {
		t.Fatalf("torn tail: %d messages, want 2", len(got))
	}
	// The tail was truncated, and the log accepts new appends cleanly.
	after, _ := os.Stat(logPath)
	if after.Size() >= before.Size() {
		t.Errorf("torn tail not truncated: %d -> %d bytes", before.Size(), after.Size())
	}
	r.Put(a, []byte("post-tear"), false)
	r.Close()

	r2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := r2.Retrieve(a, 0, 0); len(got) != 3 {
		t.Fatalf("after post-tear append: %d messages, want 3", len(got))
	}
}

func TestPersistCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := addr(5)
	// Twenty puts of 1/16 of the threshold each cross it once.
	payload := bytes.Repeat([]byte{0x42}, DefaultCompactBytes/16)
	for i := 0; i < 20; i++ {
		s.Put(a, payload, false)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapName)); err != nil {
		t.Fatalf("compaction never produced a snapshot: %v", err)
	}
	if lb := s.LogBytes(); lb >= 20*int64(len(payload)) {
		t.Errorf("log not reset by compaction: %d bytes", lb)
	}
	s.Close()

	r, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Retrieve(a, 0, 0); len(got) != 20 {
		t.Fatalf("after compacted reopen: %d messages, want 20", len(got))
	}
}

func TestPersistManualCompactAndAck(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, b := addr(6), addr(7)
	s.Put(a, []byte("a1"), false)
	m := s.Put(b, []byte("b1"), false)
	s.Put(b, []byte("b2"), false)
	s.Ack(b, m.Seq)
	s.mu.Lock()
	err = s.compactLocked()
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if s.LogBytes() != 0 {
		t.Errorf("log bytes after compact = %d", s.LogBytes())
	}
	s.Close()

	r, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Retrieve(a, 0, 0); len(got) != 1 {
		t.Fatalf("a: %d messages, want 1", len(got))
	}
	if got := r.Retrieve(b, 0, 0); len(got) != 1 || string(got[0].Sealed) != "b2" {
		t.Fatalf("b: %+v", got)
	}
}

func TestPersistRetentionAtReplay(t *testing.T) {
	dir := t.TempDir()
	now := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	s, err := OpenDir(dir, WithClock(func() time.Time { return now }))
	if err != nil {
		t.Fatal(err)
	}
	a := addr(8)
	stale := s.Put(a, []byte("stale"), false)
	s.Close()

	later := now.Add(100 * time.Hour) // beyond the 72 h default retention
	r, err := OpenDir(dir, WithClock(func() time.Time { return later }))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Retrieve(a, 0, 0); len(got) != 0 {
		t.Fatalf("expired message survived replay: %+v", got)
	}
	// Seq must still advance past the expired history.
	if m := r.Put(a, []byte("fresh"), false); m.Seq <= stale.Seq {
		t.Errorf("seq %d did not advance past expired %d", m.Seq, stale.Seq)
	}
}

func TestPersistCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapName), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(dir); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("err = %v, want ErrCorruptSnapshot", err)
	}
}

func TestInMemoryStoreUnaffected(t *testing.T) {
	s := NewStore()
	s.Put(addr(9), []byte("x"), false)
	if err := s.Sync(); err != nil {
		t.Errorf("Sync on in-memory store: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close on in-memory store: %v", err)
	}
	if s.Dir() != "" {
		t.Errorf("Dir = %q", s.Dir())
	}
	// Still usable after Close.
	if s.Put(addr(9), []byte("y"), false).Seq != 2 {
		t.Error("in-memory store broken after Close")
	}
}
