package wire

import (
	"bytes"
	"testing"

	"twobitreg/internal/core"
	"twobitreg/internal/proto"
	"twobitreg/internal/regmap"
)

func mkWrite(bit bool, val []byte) core.WriteMsg {
	m := core.WriteMsg{Val: proto.Value(val)}
	if bit {
		m.Bit = 1
	}
	return m
}

// FuzzDecode throws arbitrary bytes at the decoder: it must never panic, and
// everything it accepts must re-encode to the identical bytes (the format
// has no redundancy to normalize away).
func FuzzDecode(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0x01, 'v'})
	f.Add([]byte{0x02})
	f.Add([]byte{0x03})
	f.Add([]byte{0xFF, 0x00})
	// Lane frames: single, batch, compact — plus corrupt variants (bad
	// discriminator bit, truncated counts/lengths, trailing bytes).
	f.Add([]byte{0x04, 0x01, 'v'})
	f.Add([]byte{0x05, 0x02})
	f.Add([]byte{0x08, 0x01, 0x02, 0, 0, 0, 1, 'a', 0, 0, 0, 1, 'b'})
	f.Add([]byte{0x09, 0x00, 0x02, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0x0C, 0x01, 0x05, 'p', 'a', 'd'})
	f.Add([]byte{0x0D, 0x03, 0x02})
	f.Add([]byte{0x06, 0x00})
	f.Add([]byte{0x08, 0x01, 0x01, 0, 0, 0, 1, 'a'})
	f.Add([]byte{0x08, 0x01, 0x02, 0, 0, 0, 9, 'a'})
	f.Add([]byte{0x0C, 0x01, 0x01, 'v'})
	f.Add([]byte{0x08, 0x01, 0x02, 0, 0, 0, 1, 'a', 0, 0, 0, 1, 'b', 'x'})
	// Keyed-store frames: keyed single (0x10) and cross-key multi (0x20) —
	// plus corrupt variants (nesting, short counts, truncated keys).
	f.Add([]byte{0x10, 0x01, 'k', 0x00, 'v'})
	f.Add([]byte{0x10, 0x00, 0x02})
	f.Add([]byte{0x10, 0x01, 'k', 0x04, 0x01, 'v'})
	f.Add([]byte{0x10, 0x01, 'k', 0x10, 0x00})
	f.Add([]byte{0x10, 0x02, 'k'})
	f.Add([]byte{0x20, 0x02, 0x01, 'a', 0, 0, 0, 1, 0x02, 0x01, 'b', 0, 0, 0, 1, 0x03})
	f.Add([]byte{0x20, 0x02, 0x01, 'a', 0, 0, 0, 1, 0x02})
	f.Add([]byte{0x20, 0x01, 0x01, 'a', 0, 0, 0, 1, 0x02})
	f.Add([]byte{0x20, 0x02, 0x01, 'a', 0, 0, 0, 2, 0x0C, 0x01, 0x03, 'p', 0x01, 'b', 0, 0, 0, 1, 0x02})
	// Multi-byte uvarint counts: a compact run of 300, a batch of 128, a
	// non-minimal count, one past MaxFrameEntries, and a truncated varint.
	f.Add([]byte{0x0C, 0x01, 0xAC, 0x02, 'p'})
	f.Add(append([]byte{0x08, 0x01, 0x80, 0x01}, bytes.Repeat([]byte{0, 0, 0, 0}, 128)...))
	f.Add([]byte{0x0C, 0x01, 0x82, 0x00, 'p'})
	f.Add([]byte{0x0C, 0x01, 0x81, 0x80, 0x40, 'p'})
	f.Add([]byte{0x20, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Decode(data)
		if err != nil {
			return // rejection is fine; panicking is not
		}
		out, err := Encode(msg)
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("re-encode changed bytes: %x -> %x", data, out)
		}
	})
}

// FuzzEncodeDecodeWrite round-trips arbitrary write payloads.
func FuzzEncodeDecodeWrite(f *testing.F) {
	f.Add(true, []byte("hello"))
	f.Add(false, []byte{})
	f.Fuzz(func(t *testing.T, bit bool, val []byte) {
		m := mkWrite(bit, val)
		b, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		if got.TypeName() != m.TypeName() {
			t.Fatalf("type changed: %s -> %s", m.TypeName(), got.TypeName())
		}
	})
}

// FuzzEncodeDecodeBatch round-trips arbitrary lane batch frames: two values
// from the fuzzer plus a writer id, through Encode and back.
func FuzzEncodeDecodeBatch(f *testing.F) {
	f.Add(uint8(3), true, []byte("v6"), []byte("v7"))
	f.Add(uint8(0), false, []byte{}, []byte("x"))
	f.Fuzz(func(t *testing.T, writer uint8, bit bool, v1, v2 []byte) {
		m := core.LaneBatchMsg{Writer: int(writer), Vals: []proto.Value{v1, v2}}
		if bit {
			m.Bit = 1
		}
		b, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		gb, ok := got.(core.LaneBatchMsg)
		if !ok {
			t.Fatalf("decoded %T, want LaneBatchMsg", got)
		}
		if gb.Writer != m.Writer || gb.Bit != m.Bit || len(gb.Vals) != 2 {
			t.Fatalf("round trip changed frame: %+v -> %+v", m, gb)
		}
		for i := range m.Vals {
			if string(gb.Vals[i]) != string(m.Vals[i]) {
				t.Fatalf("value %d changed: %q -> %q", i, m.Vals[i], gb.Vals[i])
			}
		}
	})
}

// FuzzEncodeDecodeKeyed round-trips arbitrary keyed frames: a fuzzed key
// over a fuzzed write payload, alone and coalesced into a two-subframe
// cross-key multi-frame.
func FuzzEncodeDecodeKeyed(f *testing.F) {
	f.Add("alpha", true, []byte("v"), "beta")
	f.Add("", false, []byte{}, "k")
	f.Fuzz(func(t *testing.T, key string, bit bool, val []byte, key2 string) {
		if len(key) > regmap.MaxKeyLen || len(key2) > regmap.MaxKeyLen {
			return
		}
		km := regmap.KeyedMsg{Key: key, Inner: mkWrite(bit, val)}
		b, err := Encode(km)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		if dk, ok := got.(regmap.KeyedMsg); !ok || dk.Key != key || dk.TypeName() != km.TypeName() {
			t.Fatalf("keyed round trip produced %#v", got)
		}
		mm := regmap.MultiMsg{Frames: []regmap.KeyedMsg{km, {Key: key2, Inner: core.ReadMsg{}}}}
		b, err = Encode(mm)
		if err != nil {
			t.Fatal(err)
		}
		got, err = Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		dm, ok := got.(regmap.MultiMsg)
		if !ok || len(dm.Frames) != 2 || dm.Frames[0].Key != key || dm.Frames[1].Key != key2 {
			t.Fatalf("multi round trip produced %#v", got)
		}
	})
}

// FuzzDecodeClient throws arbitrary bytes at both client-protocol decoders
// (a node's client port decodes requests from anyone who connects): neither
// may panic, and any body either accepts must re-encode to the identical
// bytes.
func FuzzDecodeClient(f *testing.F) {
	for _, r := range []ClientRequest{
		{ID: 1, Op: ClientGet, Key: "k"},
		{ID: 1<<64 - 1, Op: ClientPut, Key: "color", Val: []byte("blue")},
		{ID: 7, Op: ClientPut, Key: "empty-val-put"},
	} {
		b, err := AppendClientRequest(nil, r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, r := range []ClientResponse{
		{ID: 1, Status: StatusOK, Val: []byte("v")},
		{ID: 2, Status: StatusOK},
		{ID: 3, Status: StatusErr, Err: "boom"},
		{ID: 4, Status: StatusWrongShard, Err: "shard 1"},
		{ID: 5, Status: StatusUnavailable},
	} {
		b, err := AppendClientResponse(nil, r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// Corrupt bodies: the v1 line protocol, an unknown op, an empty key, a
	// get carrying a value, and a payload length past the bytes present.
	f.Add([]byte("read\n"))
	f.Add([]byte{ClientProtoVersion, 9, 0, 0, 0, 0, 0, 0, 0, 1, 1, 'k', 0, 0, 0, 0})
	f.Add([]byte{ClientProtoVersion, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0})
	f.Add([]byte{ClientProtoVersion, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 'k', 0, 0, 0, 1, 'v'})
	f.Add([]byte{ClientProtoVersion, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 9, 'v'})
	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := DecodeClientRequest(data); err == nil {
			out, err := AppendClientRequest(nil, req)
			if err != nil {
				t.Fatalf("decoded request %+v failed to re-encode: %v", req, err)
			}
			if !bytes.Equal(out, data) {
				t.Fatalf("request re-encode changed bytes: %x -> %x", data, out)
			}
		}
		if resp, err := DecodeClientResponse(data); err == nil {
			out, err := AppendClientResponse(nil, resp)
			if err != nil {
				t.Fatalf("decoded response %+v failed to re-encode: %v", resp, err)
			}
			if !bytes.Equal(out, data) {
				t.Fatalf("response re-encode changed bytes: %x -> %x", data, out)
			}
		}
	})
}
