package wire

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"twobitreg/internal/transport"
)

func TestClientRequestRoundTrip(t *testing.T) {
	cases := []ClientRequest{
		{ID: 1, Op: ClientGet, Key: "k"},
		{ID: 1<<64 - 1, Op: ClientPut, Key: "color", Val: []byte("blue")},
		{ID: 0, Op: ClientPut, Key: strings.Repeat("k", 255), Val: make([]byte, 4096)},
		{ID: 7, Op: ClientPut, Key: "empty-val-put", Val: nil},
	}
	for _, want := range cases {
		b, err := AppendClientRequest(nil, want)
		if err != nil {
			t.Fatalf("encode %+v: %v", want, err)
		}
		got, err := DecodeClientRequest(b)
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if got.ID != want.ID || got.Op != want.Op || got.Key != want.Key || !bytes.Equal(got.Val, want.Val) {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
	}
}

func TestClientResponseRoundTrip(t *testing.T) {
	cases := []ClientResponse{
		{ID: 1, Status: StatusOK, Val: []byte("v")},
		{ID: 2, Status: StatusOK}, // put ack: no payload
		{ID: 3, Status: StatusErr, Err: "boom"},
		{ID: 4, Status: StatusWrongShard, Err: "key is elsewhere"},
		{ID: 5, Status: StatusUnavailable, Err: "mid-restart"},
	}
	for _, want := range cases {
		b, err := AppendClientResponse(nil, want)
		if err != nil {
			t.Fatalf("encode %+v: %v", want, err)
		}
		got, err := DecodeClientResponse(b)
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if got.ID != want.ID || got.Status != want.Status || !bytes.Equal(got.Val, want.Val) || got.Err != want.Err {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
	}
}

func TestClientEncodeRejects(t *testing.T) {
	reqs := []ClientRequest{
		{ID: 1, Op: 9, Key: "k"},                                   // unknown op
		{ID: 1, Op: ClientGet, Key: ""},                            // empty key
		{ID: 1, Op: ClientGet, Key: strings.Repeat("k", 256)},      // key too long
		{ID: 1, Op: ClientGet, Key: "k", Val: []byte("x")},         // get with value
		{ID: 1, Op: ClientPut, Key: "k", Val: make([]byte, 1<<25)}, // value too big
	}
	for _, r := range reqs {
		if b, err := AppendClientRequest(nil, r); err == nil {
			t.Errorf("encoded invalid request %+v", r)
		} else if len(b) != 0 {
			t.Errorf("failed encode extended dst by %d bytes", len(b))
		}
	}
	resps := []ClientResponse{
		{ID: 1, Status: 9},                                  // unknown status
		{ID: 1, Status: StatusErr, Val: []byte("v")},        // non-OK with value
		{ID: 1, Status: StatusOK, Err: "boom"},              // OK with error text
		{ID: 1, Status: StatusOK, Val: make([]byte, 1<<25)}, // payload too big
	}
	for _, r := range resps {
		if _, err := AppendClientResponse(nil, r); err == nil {
			t.Errorf("encoded invalid response %+v", r)
		}
	}
}

func TestClientDecodeRejects(t *testing.T) {
	good, err := AppendClientRequest(nil, ClientRequest{ID: 1, Op: ClientPut, Key: "k", Val: []byte("v")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeClientRequest(good[:3]); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated request: %v", err)
	}
	wrongVer := append([]byte(nil), good...)
	wrongVer[0] = 1
	var ve *ClientVersionError
	if _, err := DecodeClientRequest(wrongVer); !errors.As(err, &ve) || ve.Got != 1 {
		t.Errorf("want ClientVersionError{1}, got %v", err)
	}
	trailing := append(append([]byte(nil), good...), 0xff)
	if _, err := DecodeClientRequest(trailing); err == nil {
		t.Error("decoded request with trailing garbage")
	}

	goodResp, err := AppendClientResponse(nil, ClientResponse{ID: 1, Status: StatusOK, Val: []byte("v")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeClientResponse(goodResp[:5]); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated response: %v", err)
	}
	wrongVer = append([]byte(nil), goodResp...)
	wrongVer[0] = 99
	if _, err := DecodeClientResponse(wrongVer); !errors.As(err, &ve) || ve.Got != 99 {
		t.Errorf("want ClientVersionError{99}, got %v", err)
	}
}

func TestClientDecodeCopies(t *testing.T) {
	b, err := AppendClientRequest(nil, ClientRequest{ID: 1, Op: ClientPut, Key: "k", Val: []byte("value")})
	if err != nil {
		t.Fatal(err)
	}
	req, err := DecodeClientRequest(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		b[i] = 0xff
	}
	if req.Key != "k" || !bytes.Equal(req.Val, []byte("value")) {
		t.Fatalf("decoded request aliases the frame buffer: %+v", req)
	}
}

// TestClientFrameWriterAndReader: client frames written through
// transport.AppendFrame come back out of transport.FrameReader in order.
func TestClientFrameWriterAndReader(t *testing.T) {
	var stream []byte
	wantReqs := []ClientRequest{
		{ID: 1, Op: ClientPut, Key: "a", Val: []byte("first")},
		{ID: 2, Op: ClientGet, Key: "b"},
	}
	var err error
	for _, r := range wantReqs {
		if stream, err = transport.AppendFrame(stream, r, AppendClientRequest); err != nil {
			t.Fatal(err)
		}
	}
	if stream, err = transport.AppendFrame(stream, ClientResponse{ID: 2, Status: StatusOK, Val: []byte("v")}, AppendClientResponse); err != nil {
		t.Fatal(err)
	}
	before := len(stream)
	if stream, err = transport.AppendFrame(stream, ClientRequest{ID: 3, Op: ClientGet}, AppendClientRequest); err == nil || len(stream) != before {
		t.Fatalf("an unencodable request: %v, stream %d -> %d bytes; want an error and the stream unextended", err, before, len(stream))
	}
	fr := transport.NewFrameReader(bytes.NewReader(stream), MaxClientFrame)
	for _, want := range wantReqs {
		body, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeClientRequest(body)
		if err != nil {
			t.Fatal(err)
		}
		if got.ID != want.ID || got.Key != want.Key {
			t.Fatalf("frame stream: got %+v want %+v", got, want)
		}
	}
	body, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := DecodeClientResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 2 || resp.Status != StatusOK {
		t.Fatalf("response frame: %+v", resp)
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("want io.EOF at stream end, got %v", err)
	}
}
