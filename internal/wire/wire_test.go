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

// TestBatchBoundsMatchWireCounts pins each batch bound the emitters split
// at to the one-byte count that carries it: a lane batch and a compact frame
// of core.MaxBatchEntries entries, and a keyed multi-frame of
// regmap.MaxMultiFrames subframes, round-trip; one more is refused.
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
	const entries, subframes = core.MaxBatchEntries, regmap.MaxMultiFrames
	for _, tc := range []struct {
		name      string
		atBound   proto.Message
		pastBound proto.Message
	}{
		{"lane batch",
			core.LaneBatchMsg{Writer: 1, Bit: 1, Vals: vals(entries)},
			core.LaneBatchMsg{Writer: 1, Bit: 1, Vals: vals(entries + 1)}},
		{"lane compact",
			core.LaneCompactMsg{Writer: 1, Count: entries, Val: proto.Value("pad")},
			core.LaneCompactMsg{Writer: 1, Count: entries + 1, Val: proto.Value("pad")}},
		{"keyed multi",
			regmap.MultiMsg{Frames: frames(subframes)},
			regmap.MultiMsg{Frames: frames(subframes + 1)}},
	} {
		b, err := Encode(tc.atBound)
		if err != nil {
			t.Fatalf("%s at the bound: %v", tc.name, err)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("%s at the bound: decode: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, tc.atBound) {
			t.Fatalf("%s at the bound did not round-trip", tc.name)
		}
		if _, err := Encode(tc.pastBound); err == nil {
			t.Fatalf("%s one past the bound encoded", tc.name)
		}
	}
}
