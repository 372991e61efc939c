package wire

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"testing"
	"testing/quick"

	"twobitreg/internal/core"
	"twobitreg/internal/proto"
	"twobitreg/internal/regmap"
	"twobitreg/internal/transport"
)

func TestRoundTripAllTypes(t *testing.T) {
	t.Parallel()
	msgs := []proto.Message{
		core.WriteMsg{Bit: 0, Val: proto.Value("hello")},
		core.WriteMsg{Bit: 1, Val: proto.Value("")},
		core.WriteMsg{Bit: 1, Val: nil},
		core.ReadMsg{},
		core.ProceedMsg{},
	}
	for _, m := range msgs {
		b, err := Encode(m)
		if err != nil {
			t.Fatalf("Encode(%s): %v", m.TypeName(), err)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("Decode(%s): %v", m.TypeName(), err)
		}
		if got.TypeName() != m.TypeName() {
			t.Fatalf("round trip changed type: %s -> %s", m.TypeName(), got.TypeName())
		}
	}
}

func TestControlOccupiesTwoBits(t *testing.T) {
	t.Parallel()
	// The header byte of every message must use only its two low bits.
	for _, m := range []proto.Message{
		core.WriteMsg{Bit: 0, Val: proto.Value("x")},
		core.WriteMsg{Bit: 1, Val: proto.Value("x")},
		core.ReadMsg{},
		core.ProceedMsg{},
	} {
		b, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		if b[0]>>2 != 0 {
			t.Fatalf("%s header %#08b uses more than two bits", m.TypeName(), b[0])
		}
	}
}

func TestControlMessagesAreOneByte(t *testing.T) {
	t.Parallel()
	for _, m := range []proto.Message{core.ReadMsg{}, core.ProceedMsg{}} {
		b, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) != 1 {
			t.Fatalf("%s encodes to %d bytes, want 1", m.TypeName(), len(b))
		}
	}
}

func TestWritePayloadIsValueOnly(t *testing.T) {
	t.Parallel()
	v := proto.Value("abcdef")
	b, err := Encode(core.WriteMsg{Bit: 1, Val: v})
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 1+len(v) {
		t.Fatalf("WRITE1 encodes to %d bytes, want 1 type byte + %d value bytes", len(b), len(v))
	}
	if !bytes.Equal(b[1:], v) {
		t.Fatal("value bytes corrupted")
	}
}

func TestRejectAblationMessages(t *testing.T) {
	t.Parallel()
	if _, err := Encode(core.WriteMsg{Bit: 1, Seq: 7}); err == nil {
		t.Fatal("encoded an explicit-seqnum message as two-bit wire format")
	}
}

func TestRejectForeignMessages(t *testing.T) {
	t.Parallel()
	if _, err := Encode(fake{}); err == nil {
		t.Fatal("encoded a foreign message type")
	}
}

type fake struct{}

func (fake) TypeName() string { return "FAKE" }
func (fake) ControlBits() int { return 0 }
func (fake) DataBytes() int   { return 0 }

func TestDecodeRejectsCorruptHeader(t *testing.T) {
	t.Parallel()
	if _, err := Decode([]byte{0b0000_0100}); err == nil {
		t.Fatal("accepted header with high bits set")
	}
	if _, err := Decode(nil); err == nil {
		t.Fatal("accepted empty message")
	}
	if _, err := Decode([]byte{codeRead, 0x1}); err == nil {
		t.Fatal("accepted READ with trailing bytes")
	}
	if _, err := Decode([]byte{codeProc, 0x1}); err == nil {
		t.Fatal("accepted PROCEED with trailing bytes")
	}
}

// frameStream frames msgs the way the mesh's sender does.
func frameStream(t *testing.T, msgs ...proto.Message) []byte {
	t.Helper()
	var stream []byte
	for _, m := range msgs {
		var err error
		if stream, err = transport.AppendFrame(stream, m, AppendEncode); err != nil {
			t.Fatal(err)
		}
	}
	return stream
}

// readFrame is the mesh's receive step: one frame off the reader, decoded.
func readFrame(fr *transport.FrameReader) (proto.Message, error) {
	body, err := fr.Next()
	if err != nil {
		return nil, err
	}
	return Decode(body)
}

func TestFrameRoundTrip(t *testing.T) {
	t.Parallel()
	in := []proto.Message{
		core.WriteMsg{Bit: 1, Val: proto.Value("v1")},
		core.ReadMsg{},
		core.ProceedMsg{},
		core.WriteMsg{Bit: 0, Val: proto.Value("v2")},
	}
	fr := transport.NewFrameReader(bytes.NewReader(frameStream(t, in...)), MaxValueLen)
	for _, want := range in {
		got, err := readFrame(fr)
		if err != nil {
			t.Fatal(err)
		}
		if got.TypeName() != want.TypeName() {
			t.Fatalf("frame order: got %s, want %s", got.TypeName(), want.TypeName())
		}
	}
	if _, err := readFrame(fr); err != io.EOF {
		t.Fatalf("draining empty stream: %v, want io.EOF", err)
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	t.Parallel()
	fr := transport.NewFrameReader(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF}), MaxValueLen)
	if _, err := readFrame(fr); err == nil {
		t.Fatal("accepted oversized frame")
	}
}

// Property: every WriteMsg round-trips value bytes exactly and never leaks
// more than 2 bits of control.
func TestQuickWriteRoundTrip(t *testing.T) {
	t.Parallel()
	f := func(bit bool, v []byte) bool {
		m := core.WriteMsg{Val: v}
		if bit {
			m.Bit = 1
		}
		b, err := Encode(m)
		if err != nil {
			return false
		}
		if b[0]>>2 != 0 {
			return false
		}
		got, err := Decode(b)
		if err != nil {
			return false
		}
		w, ok := got.(core.WriteMsg)
		if !ok || w.Bit != m.Bit {
			return false
		}
		return bytes.Equal(w.Val, v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestLaneFrameRoundTrips covers the multi-writer lane frames: single,
// batch and compact frames must survive Encode/Decode with every field
// intact, and the encodings must stay canonical (re-encode byte-identical).
func TestLaneFrameRoundTrips(t *testing.T) {
	t.Parallel()
	msgs := []proto.Message{
		core.LaneMsg{Writer: 0, M: core.WriteMsg{Bit: 1, Val: proto.Value("v")}},
		core.LaneMsg{Writer: 255, M: core.WriteMsg{Bit: 0}},
		core.LaneBatchMsg{Writer: 3, Bit: 1, Vals: []proto.Value{proto.Value("a"), nil, proto.Value("ccc")}},
		core.LaneCompactMsg{Writer: 7, Bit: 0, Count: 200, Val: proto.Value("pad")},
		core.LaneCompactMsg{Writer: 0, Bit: 1, Count: 2},
	}
	for _, m := range msgs {
		b, err := Encode(m)
		if err != nil {
			t.Fatalf("encode %#v: %v", m, err)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("decode %x: %v", b, err)
		}
		b2, err := Encode(got)
		if err != nil {
			t.Fatalf("re-encode %#v: %v", got, err)
		}
		if !bytes.Equal(b, b2) {
			t.Fatalf("non-canonical encoding: %x -> %x", b, b2)
		}
		if got.TypeName() != m.TypeName() || got.ControlBits() != m.ControlBits() || got.DataBytes() != m.DataBytes() {
			t.Fatalf("round trip changed %#v into %#v", m, got)
		}
	}
}

// TestLaneFrameRejects pins the decoder's validation of corrupt lane
// frames and the encoder's range checks.
func TestLaneFrameRejects(t *testing.T) {
	t.Parallel()
	bad := [][]byte{
		{0x06, 0x00},                            // discriminator bit 1 set
		{0x04},                                  // lane frame without writer byte
		{0x08, 0x01, 0x01, 0, 0, 0, 1, 'a'},     // batch count < 2
		{0x08, 0x01, 0x02, 0, 0, 0, 9, 'a'},     // batch value truncated
		{0x0C, 0x01, 0x00},                      // compact count < 2
		{0x10},                                  // high header bits set
		{0x08, 0x01, 0x02, 0, 0, 0, 0, 0, 0, 0}, // second length truncated
	}
	for _, b := range bad {
		if m, err := Decode(b); err == nil {
			t.Fatalf("decoder accepted corrupt frame %x as %#v", b, m)
		}
	}
	if _, err := Encode(core.LaneMsg{Writer: 256}); err == nil {
		t.Fatal("encoder accepted a writer id beyond the one-byte address")
	}
	if _, err := Encode(core.LaneBatchMsg{Writer: 0, Vals: []proto.Value{proto.Value("a")}}); err == nil {
		t.Fatal("encoder accepted a 1-entry batch")
	}
	if _, err := Encode(core.LaneCompactMsg{Writer: 0, Count: 1}); err == nil {
		t.Fatal("encoder accepted a count-1 compact frame")
	}
}

// TestBatchBoundsMatchWireCounts pins the uvarint counts of the lane batch,
// the lane compact frame and the keyed multi-frame: counts on both sides of
// each varint byte boundary, and one far past the one byte they used to
// travel in, round-trip; below 128 a count is the single byte it always
// was, so those frames keep their exact bytes. The decoder refuses a count
// below 2, a truncated, overflowing or non-minimal varint, a compact count
// above core.MaxFrameEntries (a frame of a few bytes must not make its
// receiver materialize more), a count the remaining bytes cannot hold, and
// trailing bytes.
func TestBatchBoundsMatchWireCounts(t *testing.T) {
	t.Parallel()
	vals := func(n int) []proto.Value {
		out := make([]proto.Value, n)
		for i := range out {
			out[i] = proto.Value{byte(i)}
		}
		return out
	}
	frames := func(n int) []regmap.KeyedMsg {
		out := make([]regmap.KeyedMsg, n)
		for i := range out {
			out[i] = regmap.KeyedMsg{Key: fmt.Sprint("k", i), Inner: core.ReadMsg{}}
		}
		return out
	}
	for _, count := range []int{2, 127, 128, 255, 256, 70_000} {
		for _, tc := range []struct {
			name   string
			msg    proto.Message
			prefix []byte // header bytes ahead of the count
		}{
			{"lane batch", core.LaneBatchMsg{Writer: 1, Bit: 1, Vals: vals(count)}, []byte{0x09, 0x01}},
			{"lane compact", core.LaneCompactMsg{Writer: 1, Count: count, Val: proto.Value("pad")}, []byte{0x0C, 0x01}},
			{"keyed multi", regmap.MultiMsg{Frames: frames(count)}, []byte{0x20}},
		} {
			b, err := Encode(tc.msg)
			if err != nil {
				t.Fatalf("%s of %d: %v", tc.name, count, err)
			}
			if !bytes.HasPrefix(b, tc.prefix) {
				t.Fatalf("%s of %d starts %x, want %x", tc.name, count, b[:len(tc.prefix)], tc.prefix)
			}
			c := b[len(tc.prefix):]
			if count < 128 && c[0] != byte(count) {
				t.Fatalf("%s of %d: count byte %#x, want the one-byte form %#x", tc.name, count, c[0], count)
			}
			if count >= 128 && c[0]&0x80 == 0 {
				t.Fatalf("%s of %d: count byte %#x carries no continuation", tc.name, count, c[0])
			}
			// ControlBits charges the count's varint bytes as framing.
			n := 1
			for c[n-1]&0x80 != 0 {
				n++
			}
			if got := core.CountBits(count); got != 8*n {
				t.Fatalf("%s of %d: CountBits = %d for a %d-byte varint", tc.name, count, got, n)
			}
			got, err := Decode(b)
			if err != nil {
				t.Fatalf("%s of %d: decode: %v", tc.name, count, err)
			}
			if !reflect.DeepEqual(got, tc.msg) {
				t.Fatalf("%s of %d did not round-trip", tc.name, count)
			}
			// Trailing bytes are refused, except after a compact frame's
			// value, which runs to the end of the frame.
			if _, err := Decode(append(b, 0)); err == nil && tc.name != "lane compact" {
				t.Fatalf("%s of %d accepted a trailing byte", tc.name, count)
			}
		}
	}

	if _, err := Encode(core.LaneCompactMsg{Writer: 1, Count: core.MaxFrameEntries, Val: proto.Value("p")}); err != nil {
		t.Fatalf("compact frame at MaxFrameEntries: %v", err)
	}
	if _, err := Encode(core.LaneCompactMsg{Writer: 1, Count: core.MaxFrameEntries + 1}); err == nil {
		t.Fatal("encoder accepted a compact count past MaxFrameEntries")
	}
	for _, tc := range []struct {
		name string
		b    []byte
	}{
		{"compact count 1", []byte{0x0C, 0x01, 0x01, 'v'}},
		{"multi count 1", []byte{0x20, 0x01, 0x01, 'a', 0, 0, 0, 1, 0x02}},
		{"compact count truncated", []byte{0x0C, 0x01, 0x80}},
		{"batch count truncated", []byte{0x08, 0x01, 0xFF}},
		{"multi count truncated", []byte{0x20, 0x80}},
		{"compact count non-minimal", []byte{0x0C, 0x01, 0x82, 0x00, 'v'}},
		{"multi count non-minimal", []byte{0x20, 0x82, 0x00, 0x01, 'a', 0, 0, 0, 1, 0x02, 0x01, 'b', 0, 0, 0, 1, 0x03}},
		{"compact count overflows", []byte{0x0C, 0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}},
		{"compact count 2^40", []byte{0x0C, 0x01, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20, 'v'}},
		{"compact count MaxFrameEntries+1", []byte{0x0C, 0x01, 0x81, 0x80, 0x40, 'v'}},
		{"batch count past its bytes", []byte{0x08, 0x01, 0x80, 0x80, 0x04, 0, 0, 0, 0, 0, 0, 0, 0}},
		{"multi count past its bytes", []byte{0x20, 0x90, 0x4E, 0x01, 'a', 0, 0, 0, 1, 0x02, 0x01, 'b', 0, 0, 0, 1, 0x03}},
	} {
		if m, err := Decode(tc.b); err == nil {
			t.Fatalf("%s: decoder accepted %x as %#v", tc.name, tc.b, m)
		}
	}
}

// TestMaxValueFramesFitTheMesh pins the mesh's frame cap to the client
// protocol's value cap: a value as large as a client may Put (MaxValueLen)
// under the longest key travels between members as one keyed lane frame —
// a lone LaneMsg, or a compact frame at the largest count — and a mesh
// FrameReader at transport.MaxFrame must take it. A refused frame drops the
// connection, and the lanes never resend what it carried.
func TestMaxValueFramesFitTheMesh(t *testing.T) {
	t.Parallel()
	key := string(bytes.Repeat([]byte{'k'}, regmap.MaxKeyLen))
	v := make(proto.Value, MaxValueLen)
	for _, inner := range []proto.Message{
		core.LaneMsg{Writer: 255, M: core.WriteMsg{Bit: 1, Val: v}},
		core.LaneCompactMsg{Writer: 255, Bit: 1, Count: core.MaxFrameEntries, Val: v},
	} {
		m := regmap.KeyedMsg{Key: key, Inner: inner}
		fr := transport.NewFrameReader(bytes.NewReader(frameStream(t, m)), transport.MaxFrame)
		got, err := readFrame(fr)
		if err != nil {
			t.Fatalf("keyed %T of a %d-byte value: %v", inner, MaxValueLen, err)
		}
		if got.DataBytes() != MaxValueLen || got.TypeName() != m.TypeName() {
			t.Fatalf("keyed %T came back as %s of %d bytes", inner, got.TypeName(), got.DataBytes())
		}
	}
}
