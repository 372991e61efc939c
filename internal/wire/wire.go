// Package wire encodes the two-bit register's messages for byte-stream
// transports.
//
// The entire control information of a paper message occupies the two low
// bits of its first byte:
//
//	00 WRITE0   01 WRITE1   10 READ   11 PROCEED
//
// WRITE0/WRITE1 are followed by the raw value bytes; READ and PROCEED are a
// single byte. The six high bits of the first byte are zero — nothing else
// about the protocol state is on the wire, which is the paper's headline
// claim made literal. (Stream framing — a length prefix — is transport
// bookkeeping, the same for every algorithm, and excluded from the control
// accounting exactly as the paper excludes it.)
//
// The multi-writer register's lane frames use bits 2-3 of the header byte
// as a frame discriminator, with bit 0 carrying the (first) entry's
// alternating bit:
//
//	0b01_0b  lane WRITE:   header, writer id, value
//	0b10_0b  lane batch:   header, writer id, count, count x (u32 len, value)
//	0b11_0b  lane compact: header, writer id, count, value
//
// A batch is count consecutive entries (entry i at parity b+i mod 2, two
// control bits each); a compact frame is a count-long same-value padding
// run shipped as its head+tail summary. The writer id is one byte; counts
// are uvarints (one byte below 128) in 2..core.MaxFrameEntries. The writer
// id and count bytes are the addressing/framing cost accounted in the
// messages' ControlBits.
//
// The keyed store's frames (internal/regmap) use bit 4 of the header byte:
//
//	0x10  keyed frame:  header, key len, key, inner message (encoded as
//	      above — any non-keyed frame)
//	0x20  keyed multi:  header, count, count x (key len, key, u32 inner
//	      len, inner message) — cross-key coalescing, a uvarint count >= 2
//
// The key bytes (and the count/length framing) are addressing, accounted in
// the regmap messages' ControlBits; the inner frames keep their exact
// two-control-bit-per-entry census. Keyed frames do not nest.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"twobitreg/internal/core"
	"twobitreg/internal/proto"
	"twobitreg/internal/regmap"
)

// Two-bit type codes.
const (
	codeWrite0 = 0b00
	codeWrite1 = 0b01
	codeRead   = 0b10
	codeProc   = 0b11
)

// Lane-frame discriminators (bits 2-3 of the header byte; bit 0 is the
// first entry's alternating bit, bit 1 must be zero).
const (
	frameLane    = 0b0100
	frameBatch   = 0b1000
	frameCompact = 0b1100
	frameMask    = 0b1100
)

// Keyed-store frame headers (bit 4; the low four bits are zero).
const (
	frameKeyed = 0x10
	frameMulti = 0x20
)

// Codec adapts this package to transport.Codec (stream transports inject it
// so they stay protocol-agnostic).
type Codec struct{}

// AppendEncode implements the codec interface.
func (Codec) AppendEncode(dst []byte, msg proto.Message) ([]byte, error) {
	return AppendEncode(dst, msg)
}

// Decode implements the codec interface.
func (Codec) Decode(b []byte) (proto.Message, error) { return Decode(b) }

// ErrTruncated reports a message shorter than its header.
var ErrTruncated = errors.New("wire: truncated message")

// MaxValueLen bounds decoded value sizes to keep a malicious or corrupt peer
// from forcing huge allocations.
const MaxValueLen = 1 << 24

// Encode renders a two-bit register message. It rejects messages of other
// protocols and the explicit-seqnum ablation form (which is not two-bit by
// construction).
func Encode(msg proto.Message) ([]byte, error) { return AppendEncode(nil, msg) }

// AppendEncode appends msg's encoding to dst and returns the extended
// slice, so senders on a hot path (the TCP mesh's per-link sender) can
// reuse one scratch buffer across messages instead of allocating per
// encode. On error dst is returned unextended.
func AppendEncode(dst []byte, msg proto.Message) ([]byte, error) {
	switch m := msg.(type) {
	case core.WriteMsg:
		if m.Seq != 0 {
			return dst, errors.New("wire: explicit-seqnum ablation messages are not wire-encodable")
		}
		if m.Bit > 1 {
			return dst, fmt.Errorf("wire: invalid write bit %d", m.Bit)
		}
		dst = append(dst, m.Bit) // codeWrite0 / codeWrite1
		return append(dst, m.Val...), nil
	case core.ReadMsg:
		return append(dst, codeRead), nil
	case core.ProceedMsg:
		return append(dst, codeProc), nil
	case core.LaneMsg:
		if err := checkLane(m.Writer, m.M.Bit, m.M.Seq); err != nil {
			return dst, err
		}
		dst = append(dst, frameLane|m.M.Bit, byte(m.Writer))
		return append(dst, m.M.Val...), nil
	case core.LaneBatchMsg:
		if err := checkLane(m.Writer, m.Bit, 0); err != nil {
			return dst, err
		}
		if len(m.Vals) < 2 || len(m.Vals) > core.MaxFrameEntries {
			return dst, fmt.Errorf("wire: lane batch with %d entries (want 2..%d)", len(m.Vals), core.MaxFrameEntries)
		}
		dst = binary.AppendUvarint(append(dst, frameBatch|m.Bit, byte(m.Writer)), uint64(len(m.Vals)))
		for _, v := range m.Vals {
			dst = binary.BigEndian.AppendUint32(dst, uint32(len(v)))
			dst = append(dst, v...)
		}
		return dst, nil
	case core.LaneCompactMsg:
		if err := checkLane(m.Writer, m.Bit, 0); err != nil {
			return dst, err
		}
		if m.Count < 2 || m.Count > core.MaxFrameEntries {
			return dst, fmt.Errorf("wire: lane compact frame with count %d (want 2..%d)", m.Count, core.MaxFrameEntries)
		}
		dst = binary.AppendUvarint(append(dst, frameCompact|m.Bit, byte(m.Writer)), uint64(m.Count))
		return append(dst, m.Val...), nil
	case regmap.KeyedMsg:
		out, err := appendKeyedInner(append(dst, frameKeyed), m)
		if err != nil {
			return dst, err
		}
		return out, nil
	case regmap.MultiMsg:
		if len(m.Frames) < 2 {
			return dst, fmt.Errorf("wire: keyed multi-frame with %d subframes (want >= 2)", len(m.Frames))
		}
		out := binary.AppendUvarint(append(dst, frameMulti), uint64(len(m.Frames)))
		for _, f := range m.Frames {
			if err := checkKeyed(f); err != nil {
				return dst, err
			}
			out = append(out, byte(len(f.Key)))
			out = append(out, f.Key...)
			// Reserve the u32 inner-length field, encode the subframe in
			// place, then backfill the length — no per-subframe buffer.
			lenAt := len(out)
			out = append(out, 0, 0, 0, 0)
			var err error
			out, err = AppendEncode(out, f.Inner)
			if err != nil {
				return dst, err
			}
			binary.BigEndian.PutUint32(out[lenAt:lenAt+4], uint32(len(out)-lenAt-4))
		}
		return out, nil
	default:
		return dst, fmt.Errorf("wire: cannot encode %T", msg)
	}
}

// appendKeyedInner validates and appends the key and payload of one keyed
// frame: any encodable message except another keyed frame (no nesting).
func appendKeyedInner(dst []byte, m regmap.KeyedMsg) ([]byte, error) {
	if err := checkKeyed(m); err != nil {
		return dst, err
	}
	dst = append(dst, byte(len(m.Key)))
	dst = append(dst, m.Key...)
	return AppendEncode(dst, m.Inner)
}

// checkKeyed validates one keyed frame's key and nesting.
func checkKeyed(m regmap.KeyedMsg) error {
	if len(m.Key) > regmap.MaxKeyLen {
		return fmt.Errorf("wire: key of %d bytes exceeds the one-byte length field", len(m.Key))
	}
	switch m.Inner.(type) {
	case regmap.KeyedMsg, regmap.MultiMsg:
		return fmt.Errorf("wire: keyed frames do not nest (%T inside a keyed frame)", m.Inner)
	}
	return nil
}

// checkLane validates the shared lane-frame fields.
func checkLane(writer int, bit uint8, seq int) error {
	if seq != 0 {
		return errors.New("wire: explicit-seqnum ablation messages are not wire-encodable")
	}
	if bit > 1 {
		return fmt.Errorf("wire: invalid write bit %d", bit)
	}
	if writer < 0 || writer > 255 {
		return fmt.Errorf("wire: writer id %d does not fit the one-byte lane address", writer)
	}
	return nil
}

// Decode parses a message produced by Encode.
func Decode(b []byte) (proto.Message, error) {
	if len(b) == 0 {
		return nil, ErrTruncated
	}
	hdr := b[0]
	if hdr == frameKeyed || hdr == frameMulti {
		return decodeKeyed(hdr, b[1:])
	}
	if hdr>>4 != 0 {
		return nil, fmt.Errorf("wire: corrupt header byte %#x (high four bits must be zero)", hdr)
	}
	if hdr&frameMask == 0 {
		switch hdr & 0b11 {
		case codeWrite0, codeWrite1:
			return core.WriteMsg{Bit: hdr & 1, Val: valueOf(b[1:])}, nil
		case codeRead:
			if len(b) != 1 {
				return nil, fmt.Errorf("wire: READ with %d trailing bytes", len(b)-1)
			}
			return core.ReadMsg{}, nil
		default: // codeProc
			if len(b) != 1 {
				return nil, fmt.Errorf("wire: PROCEED with %d trailing bytes", len(b)-1)
			}
			return core.ProceedMsg{}, nil
		}
	}
	// Lane frames: bit 1 of the header carries nothing and must be zero.
	if hdr&0b10 != 0 {
		return nil, fmt.Errorf("wire: corrupt lane frame header %#x", hdr)
	}
	bit := hdr & 1
	if len(b) < 2 {
		return nil, ErrTruncated
	}
	writer := int(b[1])
	switch hdr & frameMask {
	case frameLane:
		return core.LaneMsg{Writer: writer, M: core.WriteMsg{Bit: bit, Val: valueOf(b[2:])}}, nil
	case frameBatch:
		// Every entry carries at least its four-byte length.
		count, rest, err := readCount(b[2:], 4, "lane batch")
		if err != nil {
			return nil, err
		}
		vals := make([]proto.Value, 0, count)
		for k := 0; k < count; k++ {
			var v []byte
			if v, rest, err = splitLen(rest, "batch value"); err != nil {
				return nil, err
			}
			vals = append(vals, valueOf(v))
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("wire: lane batch with %d trailing bytes", len(rest))
		}
		return core.LaneBatchMsg{Writer: writer, Bit: bit, Vals: vals}, nil
	default: // frameCompact
		count, rest, err := readCount(b[2:], 0, "lane compact frame")
		if err != nil {
			return nil, err
		}
		return core.LaneCompactMsg{Writer: writer, Bit: bit, Count: count, Val: valueOf(rest)}, nil
	}
}

// decodeKeyed parses the body of a keyed (0x10) or keyed multi (0x20)
// frame.
func decodeKeyed(hdr byte, rest []byte) (proto.Message, error) {
	if hdr == frameKeyed {
		key, inner, err := splitKey(rest)
		if err != nil {
			return nil, err
		}
		msg, err := decodeKeyedInner(inner)
		if err != nil {
			return nil, err
		}
		return regmap.KeyedMsg{Key: key, Inner: msg}, nil
	}
	// Every subframe carries at least its key length, its four-byte inner
	// length and a one-byte inner header.
	count, rest, err := readCount(rest, 6, "keyed multi-frame")
	if err != nil {
		return nil, err
	}
	frames := make([]regmap.KeyedMsg, 0, count)
	for k := 0; k < count; k++ {
		key, after, err := splitKey(rest)
		if err != nil {
			return nil, err
		}
		var inner []byte
		if inner, rest, err = splitLen(after, "keyed subframe"); err != nil {
			return nil, err
		}
		msg, err := decodeKeyedInner(inner)
		if err != nil {
			return nil, err
		}
		frames = append(frames, regmap.KeyedMsg{Key: key, Inner: msg})
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("wire: keyed multi-frame with %d trailing bytes", len(rest))
	}
	return regmap.MultiMsg{Frames: frames}, nil
}

// readCount consumes a frame's uvarint count, refusing a truncated,
// overflowing or non-minimal varint (one encoding per frame), a count below
// 2 or above core.MaxFrameEntries, and one the rest cannot hold at perEntry
// bytes an entry.
func readCount(b []byte, perEntry int, what string) (int, []byte, error) {
	c, n := binary.Uvarint(b)
	switch {
	case n == 0:
		return 0, nil, ErrTruncated
	case n < 0 || (n > 1 && b[n-1] == 0):
		return 0, nil, fmt.Errorf("wire: %s with a malformed count", what)
	case c < 2 || c > core.MaxFrameEntries:
		return 0, nil, fmt.Errorf("wire: %s with count %d (want 2..%d)", what, c, core.MaxFrameEntries)
	case perEntry > 0 && c > uint64((len(b)-n)/perEntry):
		return 0, nil, fmt.Errorf("wire: %s with count %d in %d bytes", what, c, len(b)-n)
	}
	return int(c), b[n:], nil
}

// splitLen consumes a u32-length-prefixed body of at most MaxValueLen bytes.
func splitLen(b []byte, what string) ([]byte, []byte, error) {
	if len(b) < 4 {
		return nil, nil, ErrTruncated
	}
	n := binary.BigEndian.Uint32(b)
	if n > MaxValueLen {
		return nil, nil, fmt.Errorf("wire: %s of %d bytes exceeds limit", what, n)
	}
	if b = b[4:]; len(b) < int(n) {
		return nil, nil, ErrTruncated
	}
	return b[:n], b[n:], nil
}

// valueOf copies a decoded value out of the frame buffer (nil when empty).
func valueOf(b []byte) proto.Value { return append(proto.Value(nil), b...) }

// splitKey consumes a length-prefixed key.
func splitKey(b []byte) (string, []byte, error) {
	if len(b) < 1 {
		return "", nil, ErrTruncated
	}
	klen := int(b[0])
	if len(b) < 1+klen {
		return "", nil, ErrTruncated
	}
	return string(b[1 : 1+klen]), b[1+klen:], nil
}

// decodeKeyedInner decodes a keyed frame's payload and rejects nesting.
func decodeKeyedInner(b []byte) (proto.Message, error) {
	if len(b) > 0 && (b[0] == frameKeyed || b[0] == frameMulti) {
		return nil, fmt.Errorf("wire: keyed frames do not nest (header %#x inside a keyed frame)", b[0])
	}
	return Decode(b)
}
