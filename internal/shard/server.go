package shard

// server.go is the client-protocol session server one shard member mounts
// on its client port: connection-multiplexed sessions speaking the
// versioned binary keyed protocol (internal/wire client frames). Many
// client goroutines share one connection; the server decodes each request,
// checks key placement, and runs the operation on its own goroutine so a
// slow quorum round on one key never delays another key's response —
// responses return in completion order, matched back by request id.

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"twobitreg/internal/cluster"
	"twobitreg/internal/transport"
	"twobitreg/internal/wire"
)

// Handler runs one keyed operation against the local shard member and
// returns the read value (get) or nil (put). Its error answers with the
// status statusOf gives it, the error text as payload. Handlers must be
// safe for concurrent use — the server calls one per in-flight request.
type Handler func(op wire.ClientOp, key string, val []byte) ([]byte, error)

// statusOf is the served failure rule: the status a handler's outcome
// answers with. A node that cannot serve — not started, closed, or stopped
// under the request — answers StatusUnavailable, which sends the client on
// to another member; a key placed elsewhere answers StatusWrongShard; any
// other error is a terminal StatusErr.
func statusOf(err error) wire.ClientStatus {
	switch {
	case err == nil:
		return wire.StatusOK
	case errors.Is(err, ErrWrongShard):
		return wire.StatusWrongShard
	case errors.Is(err, ErrUnavailable), errors.Is(err, cluster.ErrStopped):
		return wire.StatusUnavailable
	}
	return wire.StatusErr
}

// Server accepts client-protocol sessions for one shard member.
type Server struct {
	shard   int
	nshards int
	handle  Handler
	ln      net.Listener

	mu       sync.Mutex
	sessions map[*session]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// Serve starts accepting client sessions on ln for shard `shardIdx` of
// `nshards`. Requests for keys not placed on shardIdx answer
// StatusWrongShard without reaching the handler. Callers must Close.
func Serve(ln net.Listener, shardIdx, nshards int, handle Handler) (*Server, error) {
	if nshards < 1 || shardIdx < 0 || shardIdx >= nshards {
		return nil, fmt.Errorf("shard: serve shard %d of %d", shardIdx, nshards)
	}
	if handle == nil {
		return nil, fmt.Errorf("shard: nil handler")
	}
	s := &Server{
		shard:    shardIdx,
		nshards:  nshards,
		handle:   handle,
		ln:       ln,
		sessions: make(map[*session]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener's address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// ActiveSessions returns the number of live client sessions — a session
// leaves the count only after its connection is gone AND every in-flight
// request it carried has finished (the teardown tests pin this).
func (s *Server) ActiveSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Close stops accepting, closes every session, and waits for in-flight
// requests to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	for sess := range s.sessions {
		sess.conn.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		sess := &session{srv: s, conn: conn}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.sessions[sess] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go sess.run()
	}
}

// session is one client connection: a read loop decoding requests plus a
// write lock serializing responses from the per-request goroutines.
type session struct {
	srv  *Server
	conn net.Conn

	writeMu sync.Mutex
	wbuf    []byte // the response encode buffer, reused
	dead    bool   // a response write failed; stop writing, let reads drain

	reqs sync.WaitGroup // in-flight per-request goroutines
}

func (c *session) run() {
	defer func() {
		c.conn.Close()
		// Teardown completes only after every in-flight request returns:
		// their handler calls still hold node resources, and
		// ActiveSessions must not report the session gone while they run.
		c.reqs.Wait()
		c.srv.mu.Lock()
		delete(c.srv.sessions, c)
		c.srv.mu.Unlock()
		c.srv.wg.Done()
	}()
	fr := transport.NewFrameReader(c.conn, wire.MaxClientFrame)
	for {
		body, err := fr.Next()
		if err != nil {
			return // disconnect, malformed framing, or server shutdown
		}
		req, err := wire.DecodeClientRequest(body)
		if err != nil {
			// A structurally valid frame with bad contents (unknown op,
			// wrong version): answer once if we can, then drop the
			// session — after a framing-level disagreement nothing later
			// on the stream can be trusted.
			c.respond(wire.ClientResponse{Status: wire.StatusErr, Err: err.Error()})
			return
		}
		if ShardOfKey(req.Key, c.srv.nshards) != c.srv.shard {
			c.respond(wire.ClientResponse{
				ID:     req.ID,
				Status: wire.StatusWrongShard,
				Err: fmt.Sprintf("key %q is placed on shard %d, this node serves shard %d",
					req.Key, ShardOfKey(req.Key, c.srv.nshards), c.srv.shard),
			})
			continue
		}
		// One goroutine per request is what makes the session pipelined:
		// the read loop is already decoding the next request while this
		// one waits out its quorum round.
		c.reqs.Add(1)
		go func(req wire.ClientRequest) {
			defer c.reqs.Done()
			val, err := c.srv.handle(req.Op, req.Key, req.Val)
			resp := wire.ClientResponse{ID: req.ID, Status: statusOf(err)}
			if err != nil {
				resp.Err = err.Error()
			} else if req.Op == wire.ClientGet {
				resp.Val = val
			}
			c.respond(resp)
		}(req)
	}
}

// respond writes one response frame; concurrent per-request goroutines
// serialize here. A failed write kills the connection (the read loop then
// winds the session down).
func (c *session) respond(resp wire.ClientResponse) {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.dead {
		return
	}
	buf, err := transport.AppendFrame(c.wbuf[:0], resp, wire.AppendClientResponse)
	c.wbuf = buf
	if err == nil {
		_, err = c.conn.Write(buf)
	}
	if err != nil {
		c.dead = true
		c.conn.Close()
	}
}
