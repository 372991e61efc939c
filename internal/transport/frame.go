package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// errEmptyFrame rejects a zero length prefix: no message encodes to nothing.
var errEmptyFrame = errors.New("transport: zero-length frame")

// frameBufSize is a FrameReader's initial buffer: far above a burst of
// two-bit frames (tens of bytes each), so the steady state never grows it.
const frameBufSize = 16 << 10

// AppendFrame appends v to dst as one frame: a u32 big-endian length, then
// the body enc appends. It and FrameReader are the one owner of that prefix,
// for the mesh and the client protocol (internal/wire client frames) alike.
// On error dst is returned unextended, so a batch being assembled keeps the
// frames before it.
func AppendFrame[T any](dst []byte, v T, enc func([]byte, T) ([]byte, error)) ([]byte, error) {
	start := len(dst)
	out, err := enc(append(dst, 0, 0, 0, 0), v)
	if err != nil {
		return dst, err
	}
	binary.BigEndian.PutUint32(out[start:], uint32(len(out)-start-4))
	return out, nil
}

// FrameReader reads the frames AppendFrame writes through one buffer. Every
// Read on the underlying stream takes whatever has arrived, so a burst of
// frames written in one conn.Write costs its reader one syscall rather than
// two per frame (header, then body), and a frame split across writes
// reassembles. Anything else read from the stream — the mesh's hello — must
// come through the same reader, or bytes already buffered behind it are
// lost.
//
// Not safe for concurrent use: one reader goroutine per connection.
type FrameReader struct {
	src      io.Reader
	maxFrame uint32
	buf      []byte
	r, w     int // buf[r:w] is read from src and not yet consumed
}

// NewFrameReader returns a reader of frames of at most maxFrame body bytes.
func NewFrameReader(src io.Reader, maxFrame uint32) *FrameReader {
	return &FrameReader{src: src, maxFrame: maxFrame, buf: make([]byte, frameBufSize)}
}

// Take consumes n bytes ahead of the frames. Like a frame's body, the slice
// is valid only until the next call.
func (fr *FrameReader) Take(n int) ([]byte, error) {
	if err := fr.fill(n); err != nil {
		return nil, err
	}
	fr.r += n
	return fr.buf[fr.r-n : fr.r], nil
}

// Next returns the body of the next frame. The slice aliases the reader's
// buffer and is valid only until the next call; decoders copy what they
// keep. A stream that ends between frames returns io.EOF, one that ends
// inside a frame io.ErrUnexpectedEOF; a zero length, or one above the limit,
// is rejected before any of the body is buffered.
func (fr *FrameReader) Next() ([]byte, error) {
	if err := fr.fill(4); err != nil {
		return nil, err
	}
	size := binary.BigEndian.Uint32(fr.buf[fr.r:])
	if size == 0 {
		return nil, errEmptyFrame
	}
	if size > fr.maxFrame {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds the %d-byte limit", size, fr.maxFrame)
	}
	if err := fr.fill(4 + int(size)); err != nil {
		return nil, err
	}
	body := fr.buf[fr.r+4 : fr.r+4+int(size)]
	fr.r += 4 + int(size)
	return body, nil
}

// fill reads until at least n unconsumed bytes are buffered, moving them to
// the front (and growing the buffer) when they would not fit behind r.
func (fr *FrameReader) fill(n int) error {
	if fr.r == fr.w {
		fr.r, fr.w = 0, 0
	}
	if fr.r+n > len(fr.buf) {
		buf := fr.buf
		if n > len(buf) {
			buf = make([]byte, max(n, 2*len(buf)))
		}
		fr.w = copy(buf, fr.buf[fr.r:fr.w])
		fr.r, fr.buf = 0, buf
	}
	for fr.w-fr.r < n {
		m, err := fr.src.Read(fr.buf[fr.w:])
		fr.w += m
		switch {
		case fr.w-fr.r >= n:
			// Enough arrived; an error that came with it surfaces on the
			// next read of the stream.
		case err == io.EOF && fr.w > fr.r:
			return io.ErrUnexpectedEOF
		case err != nil:
			return err
		}
	}
	return nil
}
