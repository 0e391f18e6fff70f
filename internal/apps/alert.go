// Package apps implements the low-bandwidth disaster applications the
// paper motivates in §1–§2: signed emergency broadcast messages and
// geospatial (area-addressed) messaging. Each application rides
// on the CityMesh substrate — postboxes, conduits, flooding — and none
// requires cloud access.
package apps

import (
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
)

// Severity grades an emergency alert.
type Severity uint8

const (
	// SeverityInfo is advisory (e.g. shelter locations).
	SeverityInfo Severity = iota
	// SeverityWarning calls for preparation.
	SeverityWarning
	// SeverityCritical calls for immediate action.
	SeverityCritical
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	switch s {
	case SeverityInfo:
		return "info"
	case SeverityWarning:
		return "warning"
	case SeverityCritical:
		return "critical"
	default:
		return "unknown"
	}
}

// Alert is an emergency broadcast message. Alerts flood the whole mesh (no
// conduit restriction) and are authenticated by the issuing authority's
// Ed25519 key, which residents pin out-of-band — e.g. printed on city
// signage — so verification needs no connectivity.
type Alert struct {
	// Seq orders alerts from one authority; receivers drop replays of
	// lower sequence numbers.
	Seq uint64
	// Severity grades the alert.
	Severity Severity
	// IssuedUnix is the issue time (seconds).
	IssuedUnix int64
	// Body is the human-readable message.
	Body string
	// Sig is the authority signature over the preceding fields.
	Sig []byte
}

// ErrAlertSignature is returned when alert verification fails.
var ErrAlertSignature = errors.New("apps: alert signature invalid")

// ErrAlertReplay is returned when an alert's sequence number does not
// advance.
var ErrAlertReplay = errors.New("apps: alert replayed or out of order")

// alertSigned serializes the signed portion.
func alertSigned(a *Alert) []byte {
	buf := make([]byte, 0, 17+len(a.Body))
	buf = binary.BigEndian.AppendUint64(buf, a.Seq)
	buf = append(buf, byte(a.Severity))
	buf = binary.BigEndian.AppendUint64(buf, uint64(a.IssuedUnix))
	buf = append(buf, a.Body...)
	return buf
}

// SignAlert signs the alert with the authority key, filling Sig.
func SignAlert(a *Alert, authority ed25519.PrivateKey) {
	a.Sig = ed25519.Sign(authority, alertSigned(a))
}

// VerifyAlert checks the signature against the pinned authority key.
func VerifyAlert(a *Alert, authority ed25519.PublicKey) error {
	if !ed25519.Verify(authority, alertSigned(a), a.Sig) {
		return ErrAlertSignature
	}
	return nil
}

// EncodeAlert serializes an alert for a packet payload.
func EncodeAlert(a *Alert) []byte {
	body := alertSigned(a)
	out := make([]byte, 0, 4+len(body)+len(a.Sig))
	out = binary.BigEndian.AppendUint32(out, uint32(len(body)))
	out = append(out, body...)
	out = append(out, a.Sig...)
	return out
}

// DecodeAlert parses EncodeAlert output.
func DecodeAlert(b []byte) (*Alert, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("apps: alert too short")
	}
	n := binary.BigEndian.Uint32(b)
	if int(n) < 17 || len(b) < 4+int(n)+ed25519.SignatureSize {
		return nil, fmt.Errorf("apps: alert truncated (body %d, have %d)", n, len(b))
	}
	body := b[4 : 4+n]
	a := &Alert{
		Seq:        binary.BigEndian.Uint64(body),
		Severity:   Severity(body[8]),
		IssuedUnix: int64(binary.BigEndian.Uint64(body[9:])),
		Body:       string(body[17:]),
		Sig:        append([]byte(nil), b[4+n:4+n+ed25519.SignatureSize]...),
	}
	return a, nil
}

// AlertReceiver tracks per-authority replay state and verifies incoming
// alerts — the logic every resident device runs.
type AlertReceiver struct {
	authority ed25519.PublicKey
	lastSeq   uint64
	seen      bool
}

// NewAlertReceiver pins the authority key.
func NewAlertReceiver(authority ed25519.PublicKey) *AlertReceiver {
	return &AlertReceiver{authority: authority}
}

// Accept verifies and replay-checks an encoded alert, returning it when it
// should be surfaced to the user.
func (r *AlertReceiver) Accept(encoded []byte) (*Alert, error) {
	a, err := DecodeAlert(encoded)
	if err != nil {
		return nil, err
	}
	if err := VerifyAlert(a, r.authority); err != nil {
		return nil, err
	}
	if r.seen && a.Seq <= r.lastSeq {
		return nil, ErrAlertReplay
	}
	r.seen = true
	r.lastSeq = a.Seq
	return a, nil
}
