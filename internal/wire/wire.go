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
// run shipped as its head+tail summary. The writer id and count bytes are
// the addressing/framing cost accounted in the messages' ControlBits.
//
// The keyed store's frames (internal/regmap) use bit 4 of the header byte:
//
//	0x10  keyed frame:  header, key len, key, inner message (encoded as
//	      above — any non-keyed frame)
//	0x20  keyed multi:  header, count, count x (key len, key, u32 inner
//	      len, inner message) — cross-key coalescing, count >= 2
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
		if len(m.Vals) < 2 || len(m.Vals) > core.MaxBatchEntries {
			return dst, fmt.Errorf("wire: lane batch with %d entries (want 2..%d)", len(m.Vals), core.MaxBatchEntries)
		}
		dst = append(dst, frameBatch|m.Bit, byte(m.Writer), byte(len(m.Vals)))
		for _, v := range m.Vals {
			dst = binary.BigEndian.AppendUint32(dst, uint32(len(v)))
			dst = append(dst, v...)
		}
		return dst, nil
	case core.LaneCompactMsg:
		if err := checkLane(m.Writer, m.Bit, 0); err != nil {
			return dst, err
		}
		if m.Count < 2 || m.Count > core.MaxBatchEntries {
			return dst, fmt.Errorf("wire: lane compact frame with count %d (want 2..%d)", m.Count, core.MaxBatchEntries)
		}
		dst = append(dst, frameCompact|m.Bit, byte(m.Writer), byte(m.Count))
		return append(dst, m.Val...), nil
	case regmap.KeyedMsg:
		out, err := appendKeyedInner(append(dst, frameKeyed), m)
		if err != nil {
			return dst, err
		}
		return out, nil
	case regmap.MultiMsg:
		if len(m.Frames) < 2 || len(m.Frames) > regmap.MaxMultiFrames {
			return dst, fmt.Errorf("wire: keyed multi-frame with %d subframes (want 2..%d)", len(m.Frames), regmap.MaxMultiFrames)
		}
		out := append(dst, frameMulti, byte(len(m.Frames)))
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
			var v proto.Value
			if len(b) > 1 {
				v = make(proto.Value, len(b)-1)
				copy(v, b[1:])
			}
			return core.WriteMsg{Bit: hdr & 1, Val: v}, nil
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
		var v proto.Value
		if len(b) > 2 {
			v = make(proto.Value, len(b)-2)
			copy(v, b[2:])
		}
		return core.LaneMsg{Writer: writer, M: core.WriteMsg{Bit: bit, Val: v}}, nil
	case frameBatch:
		if len(b) < 3 {
			return nil, ErrTruncated
		}
		count := int(b[2])
		if count < 2 {
			return nil, fmt.Errorf("wire: lane batch with count %d (want >= 2)", count)
		}
		vals := make([]proto.Value, 0, count)
		rest := b[3:]
		for k := 0; k < count; k++ {
			if len(rest) < 4 {
				return nil, ErrTruncated
			}
			vlen := binary.BigEndian.Uint32(rest[:4])
			if vlen > MaxValueLen {
				return nil, fmt.Errorf("wire: batch value of %d bytes exceeds limit", vlen)
			}
			rest = rest[4:]
			if len(rest) < int(vlen) {
				return nil, ErrTruncated
			}
			var v proto.Value
			if vlen > 0 {
				v = make(proto.Value, vlen)
				copy(v, rest[:vlen])
			}
			vals = append(vals, v)
			rest = rest[vlen:]
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("wire: lane batch with %d trailing bytes", len(rest))
		}
		return core.LaneBatchMsg{Writer: writer, Bit: bit, Vals: vals}, nil
	default: // frameCompact
		if len(b) < 3 {
			return nil, ErrTruncated
		}
		count := int(b[2])
		if count < 2 {
			return nil, fmt.Errorf("wire: lane compact frame with count %d (want >= 2)", count)
		}
		var v proto.Value
		if len(b) > 3 {
			v = make(proto.Value, len(b)-3)
			copy(v, b[3:])
		}
		return core.LaneCompactMsg{Writer: writer, Bit: bit, Count: count, Val: v}, nil
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
	if len(rest) < 1 {
		return nil, ErrTruncated
	}
	count := int(rest[0])
	if count < 2 {
		return nil, fmt.Errorf("wire: keyed multi-frame with count %d (want >= 2)", count)
	}
	rest = rest[1:]
	frames := make([]regmap.KeyedMsg, 0, count)
	for k := 0; k < count; k++ {
		key, after, err := splitKey(rest)
		if err != nil {
			return nil, err
		}
		if len(after) < 4 {
			return nil, ErrTruncated
		}
		ilen := binary.BigEndian.Uint32(after[:4])
		if ilen > MaxValueLen {
			return nil, fmt.Errorf("wire: keyed subframe of %d bytes exceeds limit", ilen)
		}
		after = after[4:]
		if len(after) < int(ilen) {
			return nil, ErrTruncated
		}
		msg, err := decodeKeyedInner(after[:ilen])
		if err != nil {
			return nil, err
		}
		frames = append(frames, regmap.KeyedMsg{Key: key, Inner: msg})
		rest = after[ilen:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("wire: keyed multi-frame with %d trailing bytes", len(rest))
	}
	return regmap.MultiMsg{Frames: frames}, nil
}

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
