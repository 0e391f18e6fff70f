package packet

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Magic identifies a CityMesh frame.
const Magic = 0xC9

// Version is the current wire format version.
const Version = 1

// Flag bits in the header flags nibble.
const (
	// FlagPostbox indicates an 8-byte postbox address follows the route.
	FlagPostbox = 1 << 0
	// FlagEncrypted indicates the payload is a sealed postbox message.
	FlagEncrypted = 1 << 1
	// FlagUrgent requests push delivery at the destination postbox.
	FlagUrgent = 1 << 2
	// FlagGeocast marks a geospatial message (§1): the header carries a
	// target disc after the route, and APs inside the disc rebroadcast
	// and deliver regardless of destination building.
	FlagGeocast = 1 << 3
)

// DefaultTTL bounds rebroadcast depth. A city-scale route is tens of
// building hops with several AP hops each, so the default is generous.
const DefaultTTL = 255

// PostboxAddrLen is the truncated self-certifying postbox address length.
const PostboxAddrLen = 8

// MaxWaypoints bounds the route length a header may carry.
const MaxWaypoints = 255

// Header is the routing header of a CityMesh packet.
type Header struct {
	Flags uint8
	TTL   uint8
	MsgID uint64 // random duplicate-suppression ID
	Width uint8  // conduit width in meters; 0 means the default (50 m)
	// Waypoints is the compressed building route: dense building indices,
	// source first, destination last.
	Waypoints []uint32
	// Postbox is the destination postbox address; meaningful only when
	// FlagPostbox is set.
	Postbox [PostboxAddrLen]byte
	// Target is the geocast area; meaningful only when FlagGeocast is set.
	Target GeocastArea
}

// GeocastArea is a disc in city coordinates (meters). Coordinates are
// encoded as zigzag varints at 1 m resolution; the radius as a varint.
type GeocastArea struct {
	CenterX, CenterY int32
	Radius           uint32
}

// Packet is a full CityMesh frame: header plus payload.
type Packet struct {
	Header  Header
	Payload []byte
}

// routeBytes returns the encoded size in bytes of just the compressed
// route (count + delta-encoded waypoints). This is the quantity the paper's
// "compressed source route" header-size result measures.
func (h *Header) routeBytes() int {
	n := UvarintLen(uint64(len(h.Waypoints)))
	prev := int64(0)
	for i, w := range h.Waypoints {
		if i == 0 {
			n += UvarintLen(uint64(w))
		} else {
			n += UvarintLen(ZigZag(int64(w) - prev))
		}
		prev = int64(w)
	}
	return n
}

// RouteBits returns the size in bits of the encoded compressed route,
// comparable to the paper's 175-bit median / 225-bit 90th percentile.
func (h *Header) RouteBits() int { return 8 * h.routeBytes() }

// EncodedLen returns the full encoded header length in bytes.
func (h *Header) EncodedLen() int {
	n := 1 + 1 + 1 + 8 + 1 // magic/version, flags, ttl, msgid, width
	n += h.routeBytes()
	if h.Flags&FlagPostbox != 0 {
		n += PostboxAddrLen
	}
	if h.Flags&FlagGeocast != 0 {
		n += UvarintLen(ZigZag(int64(h.Target.CenterX)))
		n += UvarintLen(ZigZag(int64(h.Target.CenterY)))
		n += UvarintLen(uint64(h.Target.Radius))
	}
	return n
}

// HeaderBits returns the full header size in bits.
func (h *Header) HeaderBits() int { return 8 * h.EncodedLen() }

// Encode appends the wire encoding of the packet (header, payload and
// trailing CRC-32) to dst and returns the extended slice.
func (p *Packet) Encode(dst []byte) ([]byte, error) {
	h := &p.Header
	if len(h.Waypoints) == 0 {
		return nil, fmt.Errorf("packet: no waypoints: %w", ErrWaypointCount)
	}
	if len(h.Waypoints) > MaxWaypoints {
		return nil, fmt.Errorf("packet: %d waypoints exceeds max %d: %w",
			len(h.Waypoints), MaxWaypoints, ErrWaypointCount)
	}
	if h.Width > MaxWidthMeters {
		return nil, fmt.Errorf("packet: width %d m: %w", h.Width, ErrWidthRange)
	}
	if rb := h.routeBytes(); rb > MaxRouteBytes {
		return nil, fmt.Errorf("packet: route encodes to %d bytes: %w", rb, ErrRouteTooLong)
	}
	if len(p.Payload) > MaxPayloadLen {
		return nil, fmt.Errorf("packet: payload %d bytes: %w", len(p.Payload), ErrPayloadTooLarge)
	}
	if h.Flags&FlagGeocast != 0 && h.Target.Radius > MaxGeocastRadius {
		return nil, fmt.Errorf("packet: geocast radius %d: %w", h.Target.Radius, ErrGeocastRadius)
	}
	start := len(dst)
	dst = append(dst, Magic, (Version<<4)|(h.Flags&0x0f), h.TTL)
	dst = binary.BigEndian.AppendUint64(dst, h.MsgID)
	dst = append(dst, h.Width)
	dst = AppendUvarint(dst, uint64(len(h.Waypoints)))
	prev := int64(0)
	for i, w := range h.Waypoints {
		if i == 0 {
			dst = AppendUvarint(dst, uint64(w))
		} else {
			dst = AppendUvarint(dst, ZigZag(int64(w)-prev))
		}
		prev = int64(w)
	}
	if h.Flags&FlagPostbox != 0 {
		dst = append(dst, h.Postbox[:]...)
	}
	if h.Flags&FlagGeocast != 0 {
		dst = AppendUvarint(dst, ZigZag(int64(h.Target.CenterX)))
		dst = AppendUvarint(dst, ZigZag(int64(h.Target.CenterY)))
		dst = AppendUvarint(dst, uint64(h.Target.Radius))
	}
	dst = append(dst, p.Payload...)
	crc := crc32.ChecksumIEEE(dst[start:])
	dst = binary.BigEndian.AppendUint32(dst, crc)
	return dst, nil
}

// Decode parses a CityMesh frame. The returned packet's Payload aliases b;
// callers that retain the packet beyond the buffer's lifetime must copy.
func Decode(b []byte) (*Packet, error) {
	p, err := DecodeTo(b, nil)
	if err != nil {
		return nil, err
	}
	return &p, nil
}

// DecodeTo is Decode into a packet value whose Waypoints reuse wps's
// backing array when it is large enough (MaxWaypoints always is), so a
// caller that decodes into a stack buffer allocates nothing. The packet's
// Payload aliases b and its Waypoints alias wps: Clone it to keep it.
func DecodeTo(b []byte, wps []uint32) (Packet, error) {
	if len(b) > MaxFrameLen {
		return Packet{}, fmt.Errorf("packet: %d-byte frame: %w", len(b), ErrFrameTooLarge)
	}
	if len(b) < 4 {
		return Packet{}, ErrShortBuffer
	}
	body, trailer := b[:len(b)-4], b[len(b)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(trailer) {
		return Packet{}, ErrBadCRC
	}
	if len(body) < 14 {
		return Packet{}, ErrShortBuffer
	}
	if body[0] != Magic {
		return Packet{}, fmt.Errorf("packet: magic 0x%02x: %w", body[0], ErrBadMagic)
	}
	if v := body[1] >> 4; v != Version {
		return Packet{}, fmt.Errorf("packet: version %d: %w", v, ErrBadVersion)
	}
	var p Packet
	h := &p.Header
	h.Flags = body[1] & 0x0f
	h.TTL = body[2]
	h.MsgID = binary.BigEndian.Uint64(body[3:11])
	h.Width = body[11]
	if h.Width > MaxWidthMeters {
		return Packet{}, fmt.Errorf("packet: width %d m: %w", h.Width, ErrWidthRange)
	}
	off := 12

	count, n, err := Uvarint(body[off:])
	if err != nil {
		return Packet{}, err
	}
	off += n
	if count == 0 || count > MaxWaypoints {
		return Packet{}, fmt.Errorf("packet: waypoint count %d: %w", count, ErrWaypointCount)
	}
	routeStart := off - n
	// The waypoints go into a local slice, stored into p only at the end and
	// not through h: a store through a pointer would move wps to the heap.
	w := wps[:0]
	if uint64(cap(w)) < count {
		w = make([]uint32, 0, count)
	}
	prev := int64(0)
	for i := 0; i < int(count); i++ {
		u, n, err := Uvarint(body[off:])
		if err != nil {
			return Packet{}, err
		}
		off += n
		var v int64
		if i == 0 {
			v = int64(u)
		} else {
			v = prev + UnZigZag(u)
		}
		if v < 0 || v > 1<<31 {
			return Packet{}, fmt.Errorf("packet: waypoint %d: %w", v, ErrWaypointRange)
		}
		w = append(w, uint32(v))
		prev = v
	}
	p.Header.Waypoints = w
	if off-routeStart > MaxRouteBytes {
		return Packet{}, fmt.Errorf("packet: route is %d bytes: %w", off-routeStart, ErrRouteTooLong)
	}
	if h.Flags&FlagPostbox != 0 {
		if len(body) < off+PostboxAddrLen {
			return Packet{}, ErrShortBuffer
		}
		copy(h.Postbox[:], body[off:off+PostboxAddrLen])
		off += PostboxAddrLen
	}
	if h.Flags&FlagGeocast != 0 {
		cx, n, err := Uvarint(body[off:])
		if err != nil {
			return Packet{}, err
		}
		off += n
		cy, n, err := Uvarint(body[off:])
		if err != nil {
			return Packet{}, err
		}
		off += n
		rad, n, err := Uvarint(body[off:])
		if err != nil {
			return Packet{}, err
		}
		off += n
		if rad > MaxGeocastRadius {
			return Packet{}, fmt.Errorf("packet: geocast radius %d: %w", rad, ErrGeocastRadius)
		}
		cxv, cyv := UnZigZag(cx), UnZigZag(cy)
		if cxv < -1<<31 || cxv > 1<<31-1 || cyv < -1<<31 || cyv > 1<<31-1 {
			return Packet{}, fmt.Errorf("packet: geocast center (%d,%d): %w", cxv, cyv, ErrGeocastRadius)
		}
		h.Target = GeocastArea{
			CenterX: int32(cxv),
			CenterY: int32(cyv),
			Radius:  uint32(rad),
		}
	}
	if len(body)-off > MaxPayloadLen {
		return Packet{}, fmt.Errorf("packet: payload %d bytes: %w", len(body)-off, ErrPayloadTooLarge)
	}
	p.Payload = body[off:]
	return p, nil
}

// Src returns the source building index.
func (h *Header) Src() int { return int(h.Waypoints[0]) }

// Dst returns the destination building index.
func (h *Header) Dst() int { return int(h.Waypoints[len(h.Waypoints)-1]) }

// WidthMeters returns the conduit width in meters, resolving the default.
func (h *Header) WidthMeters() float64 {
	if h.Width == 0 {
		return 50
	}
	return float64(h.Width)
}

// Clone returns a deep copy of the packet (for rebroadcast with a decremented
// TTL without aliasing the original buffers).
//
// The header is copied field by field: copying it whole would store p's
// slices in the heap-allocated copy, and so move a caller's stack-held
// packet to the heap.
func (p *Packet) Clone() *Packet {
	h := &p.Header
	return &Packet{
		Header: Header{
			Flags:     h.Flags,
			TTL:       h.TTL,
			MsgID:     h.MsgID,
			Width:     h.Width,
			Waypoints: append([]uint32(nil), h.Waypoints...),
			Postbox:   h.Postbox,
			Target:    h.Target,
		},
		Payload: append([]byte(nil), p.Payload...),
	}
}

// String implements fmt.Stringer with a compact routing summary.
func (p *Packet) String() string {
	h := &p.Header
	return fmt.Sprintf("citymesh[msg=%016x ttl=%d wps=%d src=%d dst=%d payload=%dB]",
		h.MsgID, h.TTL, len(h.Waypoints), h.Src(), h.Dst(), len(p.Payload))
}
