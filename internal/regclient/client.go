// Package regclient is the Go client of the sharded keyed service: a
// connection-multiplexed Session speaking the versioned binary client
// protocol (internal/wire) against one node, and a routing Client that
// places keys on shards (shard.ShardOfKey over a validated
// shard.ClusterConfig) and fails over across a shard's quorum-group
// members. cmd/regctl and the claims benchmark (bench/) both consume this
// package — the CLI and the benchmark exercise the exact client path an
// application would.
//
// A Session is safe for concurrent use: any number of goroutines issue
// operations over the one connection, each tagged with a fresh request id,
// and the reader goroutine matches pipelined responses back — a slow
// quorum round on one key never delays another goroutine's response.
//
// A failed operation is in one of two classes, and failover is the one
// place that tells them apart. A member that could not be dialed, answered
// StatusUnavailable (shard.ErrUnavailable), or whose session died before
// answering (ErrSessionClosed, a malformed response included) hands the
// operation to the next member of its shard; a rejection the server
// answered (ServerError, shard.ErrWrongShard) is returned as is.
package regclient

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"twobitreg/internal/shard"
	"twobitreg/internal/transport"
	"twobitreg/internal/wire"
)

// ErrSessionClosed: the session died (Close, connection loss, a response
// it could not decode) before the response arrived. The operation's fate
// is unknown.
var ErrSessionClosed = errors.New("regclient: session closed")

// ServerError is a StatusErr response: the operation failed terminally on
// the server (the text says why).
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return "regclient: server error: " + e.Msg }

// Session is one client connection to one node, multiplexing concurrent
// requests by id.
type Session struct {
	conn net.Conn

	writeMu sync.Mutex
	wbuf    []byte // the request encode buffer, reused

	mu      sync.Mutex
	pending map[uint64]chan wire.ClientResponse
	err     error // sticky death reason; non-nil once dead

	nextID atomic.Uint64
	dead   chan struct{}
}

// DialNode opens a session to a node's client address. The connect is
// bounded by the mesh's transport.HandshakeTimeout: an unreachable node
// fails the dial in seconds, so a Client moves on to the next member.
func DialNode(addr string) (*Session, error) {
	conn, err := net.DialTimeout("tcp", addr, transport.HandshakeTimeout)
	if err != nil {
		return nil, fmt.Errorf("regclient: dial %s: %w", addr, err)
	}
	s := &Session{
		conn:    conn,
		pending: make(map[uint64]chan wire.ClientResponse),
		dead:    make(chan struct{}),
	}
	go s.readLoop()
	return s, nil
}

// Close tears the session down; waiting operations fail with
// ErrSessionClosed.
func (s *Session) Close() error {
	s.fail(ErrSessionClosed)
	return nil
}

// Alive reports whether the session can still carry requests.
func (s *Session) Alive() bool {
	select {
	case <-s.dead:
		return false
	default:
		return true
	}
}

// fail marks the session dead once: record the reason, close the
// connection (unblocking the reader), fail every waiter.
func (s *Session) fail(reason error) {
	s.mu.Lock()
	if s.err != nil {
		s.mu.Unlock()
		return
	}
	s.err = reason
	pend := s.pending
	s.pending = nil
	s.mu.Unlock()
	close(s.dead)
	s.conn.Close()
	for _, ch := range pend {
		close(ch) // a closed reply channel = session death; Do reads s.err
	}
}

func (s *Session) readLoop() {
	fr := transport.NewFrameReader(s.conn, wire.MaxClientFrame)
	for {
		body, err := fr.Next()
		if err != nil {
			s.fail(fmt.Errorf("%w: %v", ErrSessionClosed, err))
			return
		}
		resp, err := wire.DecodeClientResponse(body)
		if err != nil {
			s.fail(fmt.Errorf("%w: malformed response: %w", ErrSessionClosed, err))
			return
		}
		s.mu.Lock()
		ch := s.pending[resp.ID]
		delete(s.pending, resp.ID)
		s.mu.Unlock()
		if ch != nil {
			ch <- resp
		}
		// An unmatched id (a response to a request whose waiter gave up)
		// is dropped; ids are never reused within a session.
	}
}

// roundTrip sends one request and blocks for its response frame.
func (s *Session) roundTrip(op wire.ClientOp, key string, val []byte) (wire.ClientResponse, error) {
	id := s.nextID.Add(1)
	ch := make(chan wire.ClientResponse, 1)
	s.mu.Lock()
	if s.err != nil {
		err := s.err
		s.mu.Unlock()
		return wire.ClientResponse{}, err
	}
	s.pending[id] = ch
	s.mu.Unlock()

	s.writeMu.Lock()
	buf, err := transport.AppendFrame(s.wbuf[:0], wire.ClientRequest{ID: id, Op: op, Key: key, Val: val}, wire.AppendClientRequest)
	s.wbuf = buf
	if err == nil {
		_, err = s.conn.Write(buf)
	}
	s.writeMu.Unlock()
	if err != nil {
		s.mu.Lock()
		delete(s.pending, id)
		s.mu.Unlock()
		// A failed write is a dead session (often one the reader has just
		// declared dead): the router must see it as such and fail over.
		err = fmt.Errorf("%w: %v", ErrSessionClosed, err)
		s.fail(err)
		return wire.ClientResponse{}, err
	}

	resp, ok := <-ch
	if !ok {
		s.mu.Lock()
		err := s.err
		s.mu.Unlock()
		return wire.ClientResponse{}, err
	}
	return resp, nil
}

// do runs one operation and maps the response status back to a value or
// to the error the server's statusOf mapped to it: shard.ErrWrongShard,
// shard.ErrUnavailable, or else a ServerError.
func (s *Session) do(op wire.ClientOp, key string, val []byte) ([]byte, error) {
	resp, err := s.roundTrip(op, key, val)
	if err != nil {
		return nil, err
	}
	switch resp.Status {
	case wire.StatusOK:
		return resp.Val, nil
	case wire.StatusWrongShard:
		return nil, fmt.Errorf("%w: %s", shard.ErrWrongShard, resp.Err)
	case wire.StatusUnavailable:
		return nil, fmt.Errorf("%w: %s", shard.ErrUnavailable, resp.Err)
	default:
		return nil, &ServerError{Msg: resp.Err}
	}
}

// Get reads key through this node.
func (s *Session) Get(key string) ([]byte, error) {
	return s.do(wire.ClientGet, key, nil)
}

// Put writes val under key through this node.
func (s *Session) Put(key string, val []byte) error {
	_, err := s.do(wire.ClientPut, key, val)
	return err
}

// Client routes keyed operations across a sharded cluster: hash placement
// picks the shard, and within the shard the members are tried in order
// from a configurable preferred offset; failover decides, per failure,
// whether the next member gets the operation. Safe for concurrent use;
// sessions are dialed lazily and shared.
//
// Failover retries Puts as well as Gets, and that is a known hole: a Put
// the failed member may already have applied is issued again on another
// member's lane at a higher index, so a concurrent Put landing between the
// two lets sequential reads return v1, v2, v1 inside one Put's interval —
// the Put takes effect twice and the history is not atomic. ROADMAP V1
// tracks the witness and the fix (re-issue only a Put that provably never
// started: failover and the server's statusOf).
type Client struct {
	cfg    *shard.ClusterConfig
	prefer int

	mu   sync.Mutex
	sess map[string]*Session // by client address; dead ones are replaced
}

// New builds a client over cfg (validated client-side: mesh addresses may
// be absent). prefer rotates each shard's member preference so a fleet of
// clients spreads over the quorum group instead of piling on member 0.
func New(cfg *shard.ClusterConfig, prefer int) (*Client, error) {
	if err := cfg.ValidateClient(); err != nil {
		return nil, err
	}
	if prefer < 0 {
		return nil, &shard.ConfigError{Field: "prefer", Reason: fmt.Sprintf("negative preferred offset %d", prefer)}
	}
	return &Client{cfg: cfg, prefer: prefer, sess: make(map[string]*Session)}, nil
}

// Config returns the routing configuration.
func (c *Client) Config() *shard.ClusterConfig { return c.cfg }

// Close closes every open session.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for addr, s := range c.sess {
		s.Close()
		delete(c.sess, addr)
	}
}

// session returns a live session to addr, dialing if the cached one is
// missing or dead.
func (c *Client) session(addr string) (*Session, error) {
	c.mu.Lock()
	if s := c.sess[addr]; s != nil && s.Alive() {
		c.mu.Unlock()
		return s, nil
	}
	c.mu.Unlock()
	s, err := c.dialInto(addr)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// dialInto dials addr and publishes the session, resolving a concurrent
// dial race toward the same winner.
func (c *Client) dialInto(addr string) (*Session, error) {
	s, err := DialNode(addr)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur := c.sess[addr]; cur != nil && cur.Alive() {
		s.Close() // lost the race; use the established session
		return cur, nil
	}
	c.sess[addr] = s
	return s, nil
}

// failover is the client's failure rule: whether an operation that failed
// with err on one shard member is tried on the next. A member that could
// not be dialed, answered StatusUnavailable, or whose session died before
// answering may be replaced by another; a rejection the server answered
// (StatusErr, StatusWrongShard) would repeat anywhere in the shard.
func failover(err error) bool {
	var dial *net.OpError
	return errors.Is(err, shard.ErrUnavailable) || errors.Is(err, ErrSessionClosed) || errors.As(err, &dial)
}

// do routes one operation: place the key, then try the shard's members in
// preference order for as long as failover allows.
func (c *Client) do(op wire.ClientOp, key string, val []byte) ([]byte, error) {
	si := c.cfg.ShardOf(key)
	procs := c.cfg.Shards[si].Procs
	var lastErr error
	for try := 0; try < len(procs); try++ {
		s, err := c.session(procs[(c.prefer+try)%len(procs)].Client)
		if err == nil {
			var v []byte
			if v, err = s.do(op, key, val); err == nil {
				return v, nil
			}
		}
		if !failover(err) {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("regclient: all %d members of shard %d failed for key %q: %w",
		len(procs), si, key, lastErr)
}

// Get reads key from its shard.
func (c *Client) Get(key string) ([]byte, error) {
	return c.do(wire.ClientGet, key, nil)
}

// Put writes val under key on its shard.
func (c *Client) Put(key string, val []byte) error {
	_, err := c.do(wire.ClientPut, key, val)
	return err
}
