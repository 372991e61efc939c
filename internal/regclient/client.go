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

// Errors a client operation can return beyond transport failures.
var (
	// ErrUnavailable: the node answered StatusUnavailable (its local
	// process is down or mid-restart). Another shard member can serve;
	// Client fails over on it.
	ErrUnavailable = errors.New("regclient: node unavailable")
	// ErrWrongShard: the node answered StatusWrongShard — the routing
	// table disagrees with the server about key placement. Terminal: a
	// retry elsewhere in the same shard would fail identically.
	ErrWrongShard = errors.New("regclient: key is not placed on the addressed shard")
	// ErrSessionClosed: the session died (Close, connection loss) before
	// the response arrived. The operation's fate is unknown.
	ErrSessionClosed = errors.New("regclient: session closed")
)

// ServerError is a StatusErr response: the operation failed terminally on
// the server (the text says why).
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return "regclient: server error: " + e.Msg }

// Session is one client connection to one node, multiplexing concurrent
// requests by id.
type Session struct {
	conn net.Conn

	writeMu sync.Mutex
	fw      wire.ClientFrameWriter

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
			s.fail(fmt.Errorf("regclient: malformed response: %w", err))
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
	err := s.fw.WriteRequest(s.conn, wire.ClientRequest{ID: id, Op: op, Key: key, Val: val})
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

// do runs one operation and maps the response status to a value or error.
func (s *Session) do(op wire.ClientOp, key string, val []byte) ([]byte, error) {
	resp, err := s.roundTrip(op, key, val)
	if err != nil {
		return nil, err
	}
	switch resp.Status {
	case wire.StatusOK:
		return resp.Val, nil
	case wire.StatusWrongShard:
		return nil, fmt.Errorf("%w: %s", ErrWrongShard, resp.Err)
	case wire.StatusUnavailable:
		return nil, fmt.Errorf("%w: %s", ErrUnavailable, resp.Err)
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
// from a configurable preferred offset, failing over on dial errors, dead
// sessions, and StatusUnavailable. Safe for concurrent use; sessions are
// dialed lazily and shared.
//
// Failover retries Puts as well as Gets. For a register (last-write-wins,
// no counters or read-modify-write) re-issuing a possibly-applied write is
// safe: the worst case is the same value winning twice.
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

// do routes one operation: place the key, then try the shard's members in
// preference order. Unavailability (dial failure, dead session,
// StatusUnavailable) fails over to the next member; protocol-level
// rejections (StatusErr, StatusWrongShard) are terminal.
func (c *Client) do(op wire.ClientOp, key string, val []byte) ([]byte, error) {
	si := c.cfg.ShardOf(key)
	procs := c.cfg.Shards[si].Procs
	var lastErr error
	for try := 0; try < len(procs); try++ {
		p := procs[(c.prefer+try)%len(procs)]
		s, err := c.session(p.Client)
		if err != nil {
			lastErr = err
			continue
		}
		v, err := s.do(op, key, val)
		switch {
		case err == nil:
			return v, nil
		case errors.Is(err, ErrUnavailable) || errors.Is(err, ErrSessionClosed):
			lastErr = err
			continue
		default:
			return nil, err
		}
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
