package wire

import (
	"bytes"
	"strings"
	"testing"

	"twobitreg/internal/core"
	"twobitreg/internal/proto"
	"twobitreg/internal/regmap"
	"twobitreg/internal/transport"
)

// TestKeyedRoundTrip round-trips keyed frames over every inner message
// class the codec carries beneath a key: bare register messages and lane
// frames.
func TestKeyedRoundTrip(t *testing.T) {
	t.Parallel()
	inners := []proto.Message{
		core.WriteMsg{Bit: 1, Val: proto.Value("v")},
		core.WriteMsg{Bit: 0},
		core.ReadMsg{},
		core.ProceedMsg{},
		core.LaneMsg{Writer: 3, M: core.WriteMsg{Bit: 0, Val: proto.Value("lane")}},
		core.LaneBatchMsg{Writer: 1, Bit: 1, Vals: []proto.Value{proto.Value("a"), proto.Value("b"), nil}},
		core.LaneCompactMsg{Writer: 2, Bit: 0, Count: 9, Val: proto.Value("pad")},
	}
	for _, inner := range inners {
		for _, key := range []string{"", "k", "a-much-longer-key-name"} {
			m := regmap.KeyedMsg{Key: key, Inner: inner}
			b, err := Encode(m)
			if err != nil {
				t.Fatalf("encode key=%q %T: %v", key, inner, err)
			}
			got, err := Decode(b)
			if err != nil {
				t.Fatalf("decode key=%q %T: %v", key, inner, err)
			}
			km, ok := got.(regmap.KeyedMsg)
			if !ok {
				t.Fatalf("decoded %T, want KeyedMsg", got)
			}
			if km.Key != key {
				t.Fatalf("key %q round-tripped to %q", key, km.Key)
			}
			b2, err := Encode(km)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b, b2) {
				t.Fatalf("re-encode changed bytes: %x -> %x", b, b2)
			}
		}
	}
}

// TestMultiRoundTrip round-trips the cross-key coalescing frame with mixed
// inner types and keys.
func TestMultiRoundTrip(t *testing.T) {
	t.Parallel()
	m := regmap.MultiMsg{Frames: []regmap.KeyedMsg{
		{Key: "alpha", Inner: core.LaneMsg{Writer: 0, M: core.WriteMsg{Bit: 1, Val: proto.Value("x")}}},
		{Key: "beta", Inner: core.ReadMsg{}},
		{Key: "", Inner: core.ProceedMsg{}},
		{Key: "gamma", Inner: core.LaneCompactMsg{Writer: 4, Bit: 1, Count: 3, Val: proto.Value("p")}},
	}}
	b, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	mm, ok := got.(regmap.MultiMsg)
	if !ok {
		t.Fatalf("decoded %T, want MultiMsg", got)
	}
	if len(mm.Frames) != 4 {
		t.Fatalf("decoded %d frames, want 4", len(mm.Frames))
	}
	for i, f := range mm.Frames {
		if f.Key != m.Frames[i].Key {
			t.Fatalf("frame %d key %q, want %q", i, f.Key, m.Frames[i].Key)
		}
		if f.TypeName() != m.Frames[i].TypeName() {
			t.Fatalf("frame %d type %s, want %s", i, f.TypeName(), m.Frames[i].TypeName())
		}
	}
	b2, err := Encode(mm)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatalf("re-encode changed bytes: %x -> %x", b, b2)
	}
}

// TestKeyedRejects pins the validation: nesting, undersized multi-frames,
// oversized keys, corrupt counts and trailing bytes are all refused.
func TestKeyedRejects(t *testing.T) {
	t.Parallel()
	if _, err := Encode(regmap.KeyedMsg{Key: "k", Inner: regmap.KeyedMsg{Key: "j", Inner: core.ReadMsg{}}}); err == nil || !strings.Contains(err.Error(), "nest") {
		t.Fatalf("nested keyed frame encode: %v, want a nesting error", err)
	}
	if _, err := Encode(regmap.MultiMsg{Frames: []regmap.KeyedMsg{{Key: "k", Inner: core.ReadMsg{}}}}); err == nil {
		t.Fatal("1-subframe multi encoded")
	}
	if _, err := Encode(regmap.KeyedMsg{Key: strings.Repeat("x", 256), Inner: core.ReadMsg{}}); err == nil {
		t.Fatal("256-byte key encoded")
	}
	if _, err := Encode(regmap.KeyedMsg{Key: "k", Inner: core.WriteMsg{Bit: 0, Seq: 5}}); err == nil {
		t.Fatal("explicit-seqnum ablation message encoded inside a keyed frame")
	}
	for _, bad := range [][]byte{
		{0x10},                        // truncated before key length
		{0x10, 0x02, 'k'},             // truncated key
		{0x10, 0x01, 'k'},             // empty inner
		{0x10, 0x01, 'k', 0x10, 0x00}, // nested keyed frame
		{0x20, 0x01, 0x01, 'k', 0, 0, 0, 1, 0x02},                                    // count < 2
		{0x20, 0x02, 0x01, 'k', 0, 0, 0, 1, 0x02},                                    // second subframe missing
		{0x20, 0x02, 0x01, 'k', 0, 0, 0, 1, 0x02, 0x01, 'j', 0, 0, 0, 1, 0x03, 0xEE}, // trailing byte
	} {
		if _, err := Decode(bad); err == nil {
			t.Fatalf("decoded corrupt keyed frame %x", bad)
		}
	}
}

// TestKeyedFrameWriteRead pushes a keyed multi-frame through the stream
// framing (transport.AppendFrame / FrameReader).
func TestKeyedFrameWriteRead(t *testing.T) {
	t.Parallel()
	m := regmap.MultiMsg{Frames: []regmap.KeyedMsg{
		{Key: "cfg/a", Inner: core.LaneMsg{Writer: 1, M: core.WriteMsg{Bit: 0, Val: proto.Value("v1")}}},
		{Key: "cfg/b", Inner: core.ReadMsg{}},
	}}
	got, err := readFrame(transport.NewFrameReader(bytes.NewReader(frameStream(t, m)), MaxValueLen))
	if err != nil {
		t.Fatal(err)
	}
	mm, ok := got.(regmap.MultiMsg)
	if !ok || len(mm.Frames) != 2 || mm.Frames[0].Key != "cfg/a" {
		t.Fatalf("stream round trip produced %#v", got)
	}
}
