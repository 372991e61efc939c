package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"twobitreg/internal/core"
	"twobitreg/internal/proto"
	"twobitreg/internal/wire"
)

// frameStream frames the given messages as the mesh's sender does, the
// inbound wire format.
func frameStream(t testing.TB, msgs ...proto.Message) []byte {
	t.Helper()
	var buf []byte
	for _, m := range msgs {
		var err error
		if buf, err = AppendFrame(buf, m, wire.AppendEncode); err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

// helloBytes is the dialer's half of the handshake, as process id at
// incarnation inc sends it.
func helloBytes(id int, inc uint64) []byte {
	return binary.BigEndian.AppendUint64([]byte{byte(id)}, inc)
}

// readFrame is the mesh's receive step: one frame off the buffered reader,
// through the codec.
func readFrame(fr *FrameReader) (proto.Message, error) {
	body, err := fr.Next()
	if err != nil {
		return nil, err
	}
	return wire.Codec{}.Decode(body)
}

// TestFrameReaderReusesBuffer pins the receive path's allocation property:
// frames are handed to the codec out of the reader's one buffer — no
// per-frame allocation before the decoded message itself. Safe only
// because wire.Codec.Decode copies everything it keeps.
func TestFrameReaderReusesBuffer(t *testing.T) {
	big := core.WriteMsg{Bit: 1, Val: bytes.Repeat([]byte{'x'}, 256)}
	small := core.WriteMsg{Bit: 0, Val: []byte("abc")}
	const perRun = 5
	var msgs []proto.Message
	for i := 0; i < 2; i++ { // AllocsPerRun's warm-up call plus one run
		msgs = append(msgs, big, small, small, big, small)
	}
	fr := NewFrameReader(bytes.NewReader(frameStream(t, msgs...)), MaxFrame)
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < perRun; i++ {
			if _, err := fr.Next(); err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("reading %d frames allocated %.0f times, want 0", perRun, allocs)
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("expected EOF at stream end, got %v", err)
	}
}

// TestFrameReaderRejectsBadSizes covers the framing guards: zero-length
// and oversized frames are errors, not allocations.
func TestFrameReaderRejectsBadSizes(t *testing.T) {
	for _, tc := range []struct {
		name string
		size uint32
	}{
		{"zero", 0},
		{"huge", MaxFrame + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var hdr [4]byte
			binary.BigEndian.PutUint32(hdr[:], tc.size)
			fr := NewFrameReader(bytes.NewReader(hdr[:]), MaxFrame)
			if _, err := readFrame(fr); err == nil {
				t.Fatal("bad frame size accepted")
			}
		})
	}
}

// TestFrameReaderDecodedValuesSurviveReuse guards the contract the reuse
// rests on: values decoded from one frame must stay intact after the
// buffer they were decoded from is overwritten.
func TestFrameReaderDecodedValuesSurviveReuse(t *testing.T) {
	v1 := bytes.Repeat([]byte{'1'}, 64)
	v2 := bytes.Repeat([]byte{'2'}, 64)
	stream := frameStream(t,
		core.WriteMsg{Bit: 0, Val: v1},
		core.WriteMsg{Bit: 1, Val: v2})
	fr := NewFrameReader(bytes.NewReader(stream), MaxFrame)
	body, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	m1, err := wire.Codec{}.Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = 0xff // what a later frame landing here would do
	}
	if _, err := readFrame(fr); err != nil {
		t.Fatal(err)
	}
	if got := m1.(core.WriteMsg).Val; !bytes.Equal(got, v1) {
		t.Fatalf("first frame's value corrupted by buffer reuse: %q", got)
	}
}

// chunkReader hands out one prepared chunk per Read — a stand-in for a
// socket whose segments arrive exactly as the test cut them — and counts
// the Reads, each of which would be a syscall.
type chunkReader struct {
	chunks [][]byte
	reads  int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	c.reads++
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.chunks[0])
	if c.chunks[0] = c.chunks[0][n:]; len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
	}
	return n, nil
}

// wantFrames reads len(want) frames off fr and compares them in order.
func wantFrames(t *testing.T, fr *FrameReader, want []proto.Message) {
	t.Helper()
	for i, w := range want {
		got, err := readFrame(fr)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if g, w := got.(core.WriteMsg), w.(core.WriteMsg); g.Bit != w.Bit || !bytes.Equal(g.Val, w.Val) {
			t.Fatalf("frame %d: got bit %d and %d value bytes, want bit %d and %d", i, g.Bit, len(g.Val), w.Bit, len(w.Val))
		}
	}
}

// testFrames is a burst with a frame larger than the reader's initial
// buffer in the middle, so reassembly also crosses a buffer growth.
func testFrames() []proto.Message {
	return []proto.Message{
		core.WriteMsg{Bit: 1, Val: []byte("first")},
		core.WriteMsg{Bit: 0, Val: bytes.Repeat([]byte{'b'}, frameBufSize+100)},
		core.WriteMsg{Bit: 1, Val: []byte("third")},
		core.WriteMsg{Bit: 0, Val: nil},
	}
}

// TestFrameReaderBurstInOneRead: frames that arrive together — behind the
// hello, as a sender's first batch does — come out in order, for one Read of
// the stream and the one that finds it drained.
func TestFrameReaderBurstInOneRead(t *testing.T) {
	var want []proto.Message
	for i := 0; i < 64; i++ {
		want = append(want, core.WriteMsg{Bit: uint8(i % 2), Val: []byte{byte(i)}})
	}
	src := &chunkReader{chunks: [][]byte{append(helloBytes(7, 9), frameStream(t, want...)...)}}
	fr := NewFrameReader(src, MaxFrame)
	if hello, err := fr.Take(helloLen); err != nil || !bytes.Equal(hello, helloBytes(7, 9)) {
		t.Fatalf("hello = %v, %v; want process 7 at incarnation 9", hello, err)
	}
	wantFrames(t, fr, want)
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("after the burst: %v, want io.EOF", err)
	}
	if src.reads != 2 {
		t.Fatalf("a hello and %d frames in one segment took %d reads, want 2 (the segment, then EOF)", len(want), src.reads)
	}
}

// TestFrameReaderReassemblesSplitFrames cuts one stream at every offset, and
// into single bytes: wherever the segments break — inside a length prefix,
// inside a body, between the hello and the first frame — the same frames
// come out.
func TestFrameReaderReassemblesSplitFrames(t *testing.T) {
	want := testFrames()
	stream := append(helloBytes(3, 9), frameStream(t, want...)...)
	check := func(name string, chunks [][]byte) {
		t.Helper()
		fr := NewFrameReader(&chunkReader{chunks: chunks}, MaxFrame)
		if hello, err := fr.Take(helloLen); err != nil || !bytes.Equal(hello, helloBytes(3, 9)) {
			t.Fatalf("%s: hello = %v, %v; want process 3 at incarnation 9", name, hello, err)
		}
		wantFrames(t, fr, want)
		if _, err := fr.Next(); err != io.EOF {
			t.Fatalf("%s: after the last frame: %v, want io.EOF", name, err)
		}
	}
	for cut := 1; cut < len(stream); cut++ {
		if cut > 64 && cut < len(stream)-64 && cut%997 != 0 {
			continue // the big body's interior: sample it
		}
		check(fmt.Sprintf("cut at %d", cut), [][]byte{stream[:cut:cut], stream[cut:]})
	}
	single := make([][]byte, len(stream))
	for i := range stream {
		single[i] = stream[i : i+1]
	}
	check("one byte per read", single)
}

// TestFrameReaderStreamEnd: a stream that ends between frames is io.EOF,
// one that ends inside a frame is io.ErrUnexpectedEOF (which the mesh
// counts as peer churn, not corruption), and an oversized length is
// refused on the header alone.
func TestFrameReaderStreamEnd(t *testing.T) {
	stream := frameStream(t, core.WriteMsg{Bit: 1, Val: []byte("abcdef")})
	for cut := 1; cut < len(stream); cut++ {
		fr := NewFrameReader(bytes.NewReader(stream[:cut]), MaxFrame)
		if _, err := fr.Next(); err != io.ErrUnexpectedEOF {
			t.Fatalf("stream cut at byte %d of %d: %v, want io.ErrUnexpectedEOF", cut, len(stream), err)
		}
	}
	if _, err := NewFrameReader(bytes.NewReader(nil), MaxFrame).Next(); err != io.EOF {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
	if _, err := NewFrameReader(bytes.NewReader(nil), MaxFrame).Take(helloLen); err != io.EOF {
		t.Fatalf("empty stream, hello: %v, want io.EOF", err)
	}
	src := &chunkReader{chunks: [][]byte{{0xff, 0xff, 0xff, 0xff}, bytes.Repeat([]byte{1}, 64)}}
	if _, err := NewFrameReader(src, MaxFrame).Next(); err == nil || src.reads != 1 {
		t.Fatalf("oversized length: err = %v after %d reads, want a refusal on the header's read alone", err, src.reads)
	}
}

// TestMeshHelloAndFramesInOneSegment: a sender's hello and its first batch
// of frames leave in back-to-back writes and routinely share a segment. The
// inbound side reads both through one buffer, so every frame behind the
// hello is delivered, in order — with a bare conn.Read for the hello and a
// buffered reader for the rest, whatever the hello's read swallowed would
// be lost.
func TestMeshHelloAndFramesInOneSegment(t *testing.T) {
	t.Parallel()
	const frames = 50
	got := make(chan proto.Message, frames)
	m, err := NewMesh(0, 2, "127.0.0.1:0", wire.Codec{}, func(from int, msg proto.Message) {
		if from != 1 {
			t.Errorf("frame delivered from %d, want 1", from)
		}
		got <- msg
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	conn, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var msgs []proto.Message
	for i := 0; i < frames; i++ {
		msgs = append(msgs, core.WriteMsg{Bit: uint8(i % 2), Val: []byte(fmt.Sprintf("v%02d", i))})
	}
	if _, err := conn.Write(append(helloBytes(1, 9), frameStream(t, msgs...)...)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < frames; i++ {
		select {
		case msg := <-got:
			if w, ok := msg.(core.WriteMsg); !ok || string(w.Val) != fmt.Sprintf("v%02d", i) {
				t.Fatalf("frame %d delivered as %#v", i, msg)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("frame %d of %d written behind the hello never arrived", i, frames)
		}
	}
}

// TestMeshCloseUnblocksReaderMidFrame: Close must return while an inbound
// reader is parked inside its buffer on a frame whose second half never
// comes (and a frame cut across two writes must reassemble before that).
func TestMeshCloseUnblocksReaderMidFrame(t *testing.T) {
	t.Parallel()
	got := make(chan proto.Message, 1)
	m, err := NewMesh(0, 2, "127.0.0.1:0", wire.Codec{}, func(_ int, msg proto.Message) { got <- msg })
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame := frameStream(t, core.WriteMsg{Bit: 1, Val: []byte("split across two writes")})
	for _, part := range [][]byte{helloBytes(1, 9), frame[:7], frame[7:], frame[:7]} {
		if _, err := conn.Write(part); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case msg := <-got:
		if w, ok := msg.(core.WriteMsg); !ok || string(w.Val) != "split across two writes" {
			t.Fatalf("split frame delivered as %#v", msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a frame split across two writes never arrived")
	}
	closed := make(chan error, 1)
	go func() { closed <- m.Close() }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hangs on a reader parked mid-frame")
	}
}
