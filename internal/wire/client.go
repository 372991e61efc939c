package wire

// client.go is the versioned binary client protocol of the sharded keyed
// service (cmd/regnode): the frames a client session exchanges with one
// node's client port. Version 1 was a line protocol ("read\n" /
// "write <text>\n") that no node speaks any more; the leading version byte
// is what tells such a peer, or a future revision, apart.
//
// Framing is the mesh's u32 length prefix (transport.AppendFrame writes it,
// transport.FrameReader reads it); inside a frame:
//
//	request:  version, op, request id (u64), key len (u8), key,
//	          value len (u32), value
//	response: version, status, request id (u64), payload len (u32),
//	          payload (the read value on StatusOK, the error text otherwise)
//
// The request id is chosen by the client and echoed verbatim, so many
// concurrent requests can share one connection and responses may return in
// any order (the server handles each request on its own goroutine; a slow
// quorum round on one key never blocks another key's response). The
// version byte leads every frame so the protocol can evolve without
// breaking framing: a peer that sees an unknown version rejects the frame
// with a typed error instead of misparsing it.

import (
	"encoding/binary"
	"fmt"

	"twobitreg/internal/regmap"
)

// ClientProtoVersion is the version byte leading every client frame.
const ClientProtoVersion = 2 // v2: the binary keyed protocol (v1 was the line protocol)

// ClientOp is a client request kind.
type ClientOp uint8

// Client operations.
const (
	ClientGet ClientOp = 1 // read one key
	ClientPut ClientOp = 2 // write one key
)

// String returns "get" or "put".
func (o ClientOp) String() string {
	switch o {
	case ClientGet:
		return "get"
	case ClientPut:
		return "put"
	default:
		return fmt.Sprintf("ClientOp(%d)", uint8(o))
	}
}

// ClientStatus is a response status.
type ClientStatus uint8

// Response statuses.
const (
	// StatusOK: the operation completed; a get's payload is the value.
	StatusOK ClientStatus = 0
	// StatusErr: the operation failed terminally (the payload explains);
	// retrying the same node will not help.
	StatusErr ClientStatus = 1
	// StatusWrongShard: the key is not placed on this node's shard. The
	// client's routing table is stale or wrong; re-route, don't retry.
	StatusWrongShard ClientStatus = 2
	// StatusUnavailable: this node cannot serve right now (crashed local
	// process, mid-restart). Another member of the same shard can — the
	// client should fail over.
	StatusUnavailable ClientStatus = 3
)

// ClientRequest is one keyed client operation.
type ClientRequest struct {
	ID  uint64
	Op  ClientOp
	Key string
	Val []byte // put payload; empty for get
}

// ClientResponse answers the request with the matching ID.
type ClientResponse struct {
	ID     uint64
	Status ClientStatus
	Val    []byte // the value (StatusOK gets)
	Err    string // the error text (any non-OK status)
}

// ClientVersionError reports a frame whose leading version byte is not
// ClientProtoVersion — a v1 line-protocol peer or a future protocol rev.
type ClientVersionError struct {
	Got byte
}

func (e *ClientVersionError) Error() string {
	return fmt.Sprintf("wire: client frame version %d (this node speaks %d; the v1 line protocol is no longer served)",
		e.Got, ClientProtoVersion)
}

// clientReqHdrLen is version + op + id + key-length.
const clientReqHdrLen = 1 + 1 + 8 + 1

// clientRespHdrLen is version + status + id.
const clientRespHdrLen = 1 + 1 + 8

// AppendClientRequest appends r's encoding to dst. On error dst is
// returned unextended.
func AppendClientRequest(dst []byte, r ClientRequest) ([]byte, error) {
	if r.Op != ClientGet && r.Op != ClientPut {
		return dst, fmt.Errorf("wire: unknown client op %d", r.Op)
	}
	if len(r.Key) == 0 || len(r.Key) > regmap.MaxKeyLen {
		return dst, fmt.Errorf("wire: client request key of %d bytes (want 1..%d)", len(r.Key), regmap.MaxKeyLen)
	}
	if len(r.Val) > MaxValueLen {
		return dst, fmt.Errorf("wire: client request value of %d bytes exceeds limit", len(r.Val))
	}
	if r.Op == ClientGet && len(r.Val) > 0 {
		return dst, fmt.Errorf("wire: get request carries a %d-byte value", len(r.Val))
	}
	dst = append(dst, ClientProtoVersion, byte(r.Op))
	dst = binary.BigEndian.AppendUint64(dst, r.ID)
	dst = append(dst, byte(len(r.Key)))
	dst = append(dst, r.Key...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.Val)))
	return append(dst, r.Val...), nil
}

// DecodeClientRequest parses a request frame body. The returned request
// owns its bytes (callers may reuse b).
func DecodeClientRequest(b []byte) (ClientRequest, error) {
	var r ClientRequest
	if len(b) < clientReqHdrLen {
		return r, ErrTruncated
	}
	if b[0] != ClientProtoVersion {
		return r, &ClientVersionError{Got: b[0]}
	}
	r.Op = ClientOp(b[1])
	if r.Op != ClientGet && r.Op != ClientPut {
		return r, fmt.Errorf("wire: unknown client op %d", b[1])
	}
	r.ID = binary.BigEndian.Uint64(b[2:10])
	klen := int(b[10])
	if klen == 0 {
		return r, fmt.Errorf("wire: client request with empty key")
	}
	rest := b[clientReqHdrLen:]
	if len(rest) < klen+4 {
		return r, ErrTruncated
	}
	r.Key = string(rest[:klen])
	vlen := binary.BigEndian.Uint32(rest[klen : klen+4])
	if vlen > MaxValueLen {
		return r, fmt.Errorf("wire: client request value of %d bytes exceeds limit", vlen)
	}
	rest = rest[klen+4:]
	if len(rest) != int(vlen) {
		return r, fmt.Errorf("wire: client request value length %d with %d bytes present", vlen, len(rest))
	}
	if r.Op == ClientGet && vlen > 0 {
		return r, fmt.Errorf("wire: get request carries a %d-byte value", vlen)
	}
	if vlen > 0 {
		r.Val = make([]byte, vlen)
		copy(r.Val, rest)
	}
	return r, nil
}

// AppendClientResponse appends r's encoding to dst. Exactly one of Val and
// Err may be set, matching the status. On error dst is returned unextended.
func AppendClientResponse(dst []byte, r ClientResponse) ([]byte, error) {
	payload := r.Val
	if r.Status != StatusOK {
		if len(r.Val) > 0 {
			return dst, fmt.Errorf("wire: non-OK client response carries a value")
		}
		payload = []byte(r.Err)
	} else if r.Err != "" {
		return dst, fmt.Errorf("wire: OK client response carries error text %q", r.Err)
	}
	if len(payload) > MaxValueLen {
		return dst, fmt.Errorf("wire: client response payload of %d bytes exceeds limit", len(payload))
	}
	switch r.Status {
	case StatusOK, StatusErr, StatusWrongShard, StatusUnavailable:
	default:
		return dst, fmt.Errorf("wire: unknown client status %d", r.Status)
	}
	dst = append(dst, ClientProtoVersion, byte(r.Status))
	dst = binary.BigEndian.AppendUint64(dst, r.ID)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...), nil
}

// DecodeClientResponse parses a response frame body. The returned response
// owns its bytes.
func DecodeClientResponse(b []byte) (ClientResponse, error) {
	var r ClientResponse
	if len(b) < clientRespHdrLen+4 {
		return r, ErrTruncated
	}
	if b[0] != ClientProtoVersion {
		return r, &ClientVersionError{Got: b[0]}
	}
	r.Status = ClientStatus(b[1])
	switch r.Status {
	case StatusOK, StatusErr, StatusWrongShard, StatusUnavailable:
	default:
		return r, fmt.Errorf("wire: unknown client status %d", b[1])
	}
	r.ID = binary.BigEndian.Uint64(b[2:10])
	plen := binary.BigEndian.Uint32(b[clientRespHdrLen : clientRespHdrLen+4])
	if plen > MaxValueLen {
		return r, fmt.Errorf("wire: client response payload of %d bytes exceeds limit", plen)
	}
	rest := b[clientRespHdrLen+4:]
	if len(rest) != int(plen) {
		return r, fmt.Errorf("wire: client response payload length %d with %d bytes present", plen, len(rest))
	}
	if plen > 0 {
		if r.Status == StatusOK {
			r.Val = make([]byte, plen)
			copy(r.Val, rest)
		} else {
			r.Err = string(rest)
		}
	}
	return r, nil
}

// MaxClientFrame bounds a client frame's body — the largest value plus
// headroom for the header and key. Both ends of a session write frames with
// transport.AppendFrame and read their connection through
// transport.NewFrameReader(conn, MaxClientFrame).
const MaxClientFrame = MaxValueLen + 1024
