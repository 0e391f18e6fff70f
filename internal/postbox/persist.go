// Crash-safe postbox persistence.
//
// An AP reboot is the defining event of the disaster the paper designs for
// (§6: agents must survive "months of unattended operation" on consumer
// hardware), so the messages a postbox holds must not live only in RAM.
// The store persists with the classic append-only log + snapshot pair:
//
//   - every accepted Put and every Ack appends one CRC-framed record to
//     <dir>/postbox.log (an O(message) write on the hot path — no rewrite);
//   - when the log grows past a threshold the store writes a snapshot of
//     its live state to <dir>/postbox.snap (write-temp, fsync, rename) and
//     truncates the log;
//   - OpenDir loads the snapshot, replays the log, and tolerates a torn
//     final record (the expected artifact of power loss mid-append) by
//     truncating the log at the last whole record.
//
// A SIGKILL loses nothing that reached the kernel; Sync() adds an fsync
// for power-loss durability at the caller's chosen cadence. The lastSeen
// location cache is deliberately not persisted: it is soft state that the
// next device check-in rebuilds.
package postbox

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"
)

const (
	logName  = "postbox.log"
	snapName = "postbox.snap"

	recPut byte = 1
	recAck byte = 2

	// recHeaderLen frames every log record: 4-byte length + 4-byte CRC.
	recHeaderLen = 8
	// maxRecLen bounds a single record so a corrupt length field cannot
	// drive a huge allocation at replay.
	maxRecLen = 1 << 20

	snapMagic   = "CMPB"
	snapVersion = 1
)

// DefaultCompactBytes is the log size that triggers automatic compaction.
const DefaultCompactBytes = 1 << 20

// ErrCorruptSnapshot is returned by OpenDir when the snapshot file exists
// but cannot be parsed. The log alone may still be replayable; callers that
// prefer availability over the snapshot's history can remove the file.
var ErrCorruptSnapshot = errors.New("postbox: corrupt snapshot")

// persister is the store's attachment to disk. Its methods are called with
// the store mutex held, so log order always matches seq order.
type persister struct {
	dir      string
	log      *os.File
	logBytes int64
	err      error // first append/compact failure, surfaced by Sync
}

// OpenDir opens (or creates) a persistent store rooted at dir: it loads the
// snapshot if one exists, replays the append-only log, and leaves the log
// open for appending. Options apply before replay, so an injected clock
// decides which replayed messages are past retention.
func OpenDir(dir string, opts ...StoreOption) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("postbox: open %s: %w", dir, err)
	}
	s := NewStore(opts...)
	p := &persister{dir: dir}

	if snap, err := os.ReadFile(filepath.Join(dir, snapName)); err == nil {
		if err := s.applySnapshot(snap); err != nil {
			return nil, err
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("postbox: read snapshot: %w", err)
	}

	logPath := filepath.Join(dir, logName)
	f, err := os.OpenFile(logPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("postbox: open log: %w", err)
	}
	good, err := s.replayLog(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	// Drop a torn tail so the next append starts at a record boundary.
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, fmt.Errorf("postbox: truncate torn log tail: %w", err)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("postbox: seek log end: %w", err)
	}
	p.log = f
	p.logBytes = good
	s.persist = p
	return s, nil
}

// Dir returns the persistence directory, or "" for an in-memory store.
func (s *Store) Dir() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.persist == nil {
		return ""
	}
	return s.persist.dir
}

// Sync flushes the log to stable storage and reports the first persistence
// error encountered since the last Sync (append failures are otherwise
// absorbed so the hot path never blocks message acceptance).
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.persist
	if p == nil {
		return nil
	}
	err := p.err
	p.err = nil
	if p.log != nil {
		if serr := p.log.Sync(); serr != nil && err == nil {
			err = serr
		}
	}
	return err
}

// Close syncs and releases the log file. The store remains usable in
// memory; further mutations are no longer persisted.
func (s *Store) Close() error {
	err := s.Sync()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.persist == nil || s.persist.log == nil {
		return err
	}
	if cerr := s.persist.log.Close(); cerr != nil && err == nil {
		err = cerr
	}
	s.persist.log = nil
	s.persist = nil
	return err
}

// LogBytes reports the current append-only log size (diagnostics).
func (s *Store) LogBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.persist == nil {
		return 0
	}
	return s.persist.logBytes
}

// --- record encoding -----------------------------------------------------

// appendRecord frames and appends one record; called with s.mu held.
func (p *persister) appendRecord(payload []byte) {
	if p == nil || p.log == nil {
		return
	}
	frame := make([]byte, 0, recHeaderLen+len(payload))
	frame = binary.BigEndian.AppendUint32(frame, uint32(len(payload)))
	frame = binary.BigEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	frame = append(frame, payload...)
	n, err := p.log.Write(frame)
	p.logBytes += int64(n)
	if err != nil && p.err == nil {
		p.err = fmt.Errorf("postbox: log append: %w", err)
	}
}

// putRecord encodes a stored message (also the snapshot's per-message
// encoding).
func putRecord(m *StoredMessage) []byte {
	b := []byte{recPut}
	b = append(b, m.To[:]...)
	b = binary.AppendUvarint(b, m.Seq)
	b = binary.AppendVarint(b, m.StoredAt.UnixNano())
	if m.Urgent {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(m.Sealed)))
	return append(b, m.Sealed...)
}

// parsePut decodes a putRecord payload (after the type byte).
func parsePut(b []byte) (StoredMessage, error) {
	var m StoredMessage
	if len(b) < AddressLen {
		return m, errShortRecord
	}
	copy(m.To[:], b[:AddressLen])
	b = b[AddressLen:]
	seq, n := binary.Uvarint(b)
	if n <= 0 {
		return m, errShortRecord
	}
	b = b[n:]
	nano, n := binary.Varint(b)
	if n <= 0 {
		return m, errShortRecord
	}
	b = b[n:]
	if len(b) < 1 {
		return m, errShortRecord
	}
	m.Urgent = b[0] == 1
	b = b[1:]
	slen, n := binary.Uvarint(b)
	if n <= 0 || uint64(len(b)-n) != slen {
		return m, errShortRecord
	}
	m.Seq = seq
	m.StoredAt = time.Unix(0, nano)
	m.Sealed = append([]byte(nil), b[n:]...)
	return m, nil
}

var errShortRecord = errors.New("postbox: short log record")

// logPut appends a put record and compacts if the log outgrew its
// threshold; called with s.mu held.
func (s *Store) logPut(m *StoredMessage) {
	if s.persist == nil {
		return
	}
	s.persist.appendRecord(putRecord(m))
	s.maybeCompactLocked()
}

// logAck appends an ack record; called with s.mu held.
func (s *Store) logAck(addr Address, seq uint64) {
	if s.persist == nil {
		return
	}
	b := []byte{recAck}
	b = append(b, addr[:]...)
	b = binary.AppendUvarint(b, seq)
	s.persist.appendRecord(b)
	s.maybeCompactLocked()
}

func (s *Store) maybeCompactLocked() {
	p := s.persist
	if p == nil || p.log == nil || p.logBytes < DefaultCompactBytes {
		return
	}
	if err := s.compactLocked(); err != nil && p.err == nil {
		p.err = err
	}
}

// --- replay --------------------------------------------------------------

// replayLog applies every whole record in f and returns the offset of the
// last record boundary (bytes past it are a torn tail to truncate).
func (s *Store) replayLog(f *os.File) (int64, error) {
	data, err := io.ReadAll(f)
	if err != nil {
		return 0, fmt.Errorf("postbox: read log: %w", err)
	}
	var off int64
	for int64(len(data))-off >= recHeaderLen {
		hdr := data[off : off+recHeaderLen]
		plen := int64(binary.BigEndian.Uint32(hdr[:4]))
		sum := binary.BigEndian.Uint32(hdr[4:8])
		if plen > maxRecLen || off+recHeaderLen+plen > int64(len(data)) {
			break // torn or corrupt tail
		}
		payload := data[off+recHeaderLen : off+recHeaderLen+plen]
		if crc32.ChecksumIEEE(payload) != sum {
			break
		}
		if err := s.applyRecord(payload); err != nil {
			break
		}
		off += recHeaderLen + plen
	}
	return off, nil
}

// applyRecord replays one decoded record into the in-memory state.
func (s *Store) applyRecord(payload []byte) error {
	if len(payload) == 0 {
		return errShortRecord
	}
	switch payload[0] {
	case recPut:
		m, err := parsePut(payload[1:])
		if err != nil {
			return err
		}
		s.insertReplayed(m)
		return nil
	case recAck:
		b := payload[1:]
		if len(b) < AddressLen {
			return errShortRecord
		}
		var addr Address
		copy(addr[:], b[:AddressLen])
		seq, n := binary.Uvarint(b[AddressLen:])
		if n <= 0 {
			return errShortRecord
		}
		s.ackLocked(addr, seq)
		return nil
	default:
		return fmt.Errorf("postbox: unknown record type %d", payload[0])
	}
}

// insertReplayed re-inserts a persisted message, preserving its original
// seq and timestamp, honoring retention and the per-box capacity.
func (s *Store) insertReplayed(m StoredMessage) {
	if s.clock().Sub(m.StoredAt) > retention {
		if m.Seq > s.seq {
			s.seq = m.Seq
		}
		return
	}
	box := append(s.boxes[m.To], m)
	if len(box) > maxPerBox {
		box = box[len(box)-maxPerBox:]
	}
	s.boxes[m.To] = box
	if m.Seq > s.seq {
		s.seq = m.Seq
	}
}

// --- snapshot ------------------------------------------------------------

// snapshotBytes serializes the live state; called with s.mu held.
func (s *Store) snapshotBytes() []byte {
	out := append([]byte(nil), snapMagic...)
	out = append(out, snapVersion)
	out = binary.AppendUvarint(out, s.seq)
	total := 0
	for _, box := range s.boxes {
		total += len(box)
	}
	out = binary.AppendUvarint(out, uint64(total))
	for _, box := range s.boxes {
		for i := range box {
			rec := putRecord(&box[i])
			out = binary.AppendUvarint(out, uint64(len(rec)))
			out = append(out, rec...)
		}
	}
	return out
}

// applySnapshot loads snapshotBytes output into an empty store.
func (s *Store) applySnapshot(b []byte) error {
	if len(b) < len(snapMagic)+1 || string(b[:len(snapMagic)]) != snapMagic {
		return fmt.Errorf("%w: bad magic", ErrCorruptSnapshot)
	}
	if b[len(snapMagic)] != snapVersion {
		return fmt.Errorf("%w: version %d", ErrCorruptSnapshot, b[len(snapMagic)])
	}
	b = b[len(snapMagic)+1:]
	seq, n := binary.Uvarint(b)
	if n <= 0 {
		return fmt.Errorf("%w: truncated seq", ErrCorruptSnapshot)
	}
	b = b[n:]
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return fmt.Errorf("%w: truncated count", ErrCorruptSnapshot)
	}
	b = b[n:]
	for i := uint64(0); i < count; i++ {
		rlen, n := binary.Uvarint(b)
		if n <= 0 || uint64(len(b)-n) < rlen || rlen == 0 || rlen > maxRecLen {
			return fmt.Errorf("%w: truncated record %d", ErrCorruptSnapshot, i)
		}
		rec := b[n : n+int(rlen)]
		b = b[n+int(rlen):]
		if rec[0] != recPut {
			return fmt.Errorf("%w: record %d has type %d", ErrCorruptSnapshot, i, rec[0])
		}
		m, err := parsePut(rec[1:])
		if err != nil {
			return fmt.Errorf("%w: record %d: %v", ErrCorruptSnapshot, i, err)
		}
		s.insertReplayed(m)
	}
	if seq > s.seq {
		s.seq = seq
	}
	// Boxes were keyed by address during insert; re-sort each by seq in
	// case map iteration at snapshot time interleaved recipients.
	for addr, box := range s.boxes {
		sortBySeq(box)
		s.boxes[addr] = box
	}
	return nil
}

func sortBySeq(box []StoredMessage) {
	// Insertion sort: boxes are near-sorted (per-recipient order was
	// preserved; only cross-recipient interleaving shuffled anything).
	for i := 1; i < len(box); i++ {
		for j := i; j > 0 && box[j].Seq < box[j-1].Seq; j-- {
			box[j], box[j-1] = box[j-1], box[j]
		}
	}
}

// compactLocked writes the snapshot (write-temp, fsync, rename) and resets
// the log; called with s.mu held.
func (s *Store) compactLocked() error {
	p := s.persist
	if p == nil || p.log == nil {
		return nil
	}
	tmp := filepath.Join(p.dir, snapName+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("postbox: compact: %w", err)
	}
	if _, err := f.Write(s.snapshotBytes()); err != nil {
		f.Close()
		return fmt.Errorf("postbox: compact write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("postbox: compact sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("postbox: compact close: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(p.dir, snapName)); err != nil {
		return fmt.Errorf("postbox: compact rename: %w", err)
	}
	// The snapshot now owns all state; restart the log.
	if err := p.log.Truncate(0); err != nil {
		return fmt.Errorf("postbox: compact truncate log: %w", err)
	}
	if _, err := p.log.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("postbox: compact seek log: %w", err)
	}
	p.logBytes = 0
	return nil
}
