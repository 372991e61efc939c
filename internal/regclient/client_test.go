package regclient

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"twobitreg/internal/shard"
	"twobitreg/internal/transport"
	"twobitreg/internal/wire"
)

// serveStub mounts a shard.Server with the given handler on a loopback
// listener — the real server stack minus the quorum group, so these tests
// pin the session layer alone.
func serveStub(t *testing.T, h shard.Handler) *shard.Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := shard.Serve(ln, 0, 1, h)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func oneShardConfig(addrs ...string) *shard.ClusterConfig {
	procs := make([]shard.Proc, len(addrs))
	for i, a := range addrs {
		procs[i] = shard.Proc{Client: a}
	}
	return &shard.ClusterConfig{Shards: []shard.Shard{{Procs: procs}}}
}

// Pipelined requests over ONE connection, with the server completing them
// out of order: every caller must get the response carrying its own id.
func TestSessionPipelinedReordering(t *testing.T) {
	// Requests park until released; release order is the reverse of
	// arrival, so responses come back maximally reordered.
	type parked struct {
		key     string
		release chan struct{}
	}
	var mu sync.Mutex
	var waiting []parked
	arrived := make(chan struct{}, 64)
	srv := serveStub(t, func(op wire.ClientOp, key string, val []byte) ([]byte, error) {
		ch := make(chan struct{})
		mu.Lock()
		waiting = append(waiting, parked{key, ch})
		mu.Unlock()
		arrived <- struct{}{}
		<-ch
		return []byte("echo:" + key), nil
	})

	sess, err := DialNode(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	const n = 16
	results := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := fmt.Sprintf("key-%02d", i)
			got, err := sess.Get(key)
			if err != nil {
				results[i] = err
				return
			}
			if string(got) != "echo:"+key {
				results[i] = fmt.Errorf("key %q got %q", key, got)
			}
		}()
	}
	for i := 0; i < n; i++ {
		<-arrived // all n requests are in flight on the one connection
	}
	mu.Lock()
	for i := len(waiting) - 1; i >= 0; i-- {
		close(waiting[i].release)
	}
	mu.Unlock()
	wg.Wait()
	for i, err := range results {
		if err != nil {
			t.Errorf("caller %d: %v", i, err)
		}
	}
}

// A fast request behind a stuck one must complete: the session does not
// serialize responses in request order.
func TestSessionSlowRequestDoesNotBlockFast(t *testing.T) {
	release := make(chan struct{})
	srv := serveStub(t, func(op wire.ClientOp, key string, val []byte) ([]byte, error) {
		if key == "slow" {
			<-release
		}
		return []byte(key), nil
	})
	sess, err := DialNode(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	slowDone := make(chan error, 1)
	go func() {
		_, err := sess.Get("slow")
		slowDone <- err
	}()
	// The fast request completes while "slow" is parked server-side.
	if v, err := sess.Get("fast"); err != nil || string(v) != "fast" {
		t.Fatalf("fast behind slow: %q, %v", v, err)
	}
	select {
	case err := <-slowDone:
		t.Fatalf("slow request finished early: %v", err)
	default:
	}
	close(release)
	if err := <-slowDone; err != nil {
		t.Fatalf("slow request: %v", err)
	}
}

// Closing the session fails every in-flight waiter with ErrSessionClosed
// instead of leaving them parked forever.
func TestSessionCloseFailsWaiters(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	srv := serveStub(t, func(op wire.ClientOp, key string, val []byte) ([]byte, error) {
		<-block
		return nil, nil
	})
	sess, err := DialNode(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := sess.Get("parked")
			done <- err
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the requests reach the wire
	sess.Close()
	for i := 0; i < n; i++ {
		select {
		case err := <-done:
			if !errors.Is(err, ErrSessionClosed) {
				t.Fatalf("waiter failed with %v, want ErrSessionClosed", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("waiter still parked after Close")
		}
	}
	if sess.Alive() {
		t.Fatal("session reports alive after Close")
	}
	if _, err := sess.Get("after"); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("op on closed session: %v", err)
	}
}

// Server-side teardown (node dies mid-request) surfaces as ErrSessionClosed
// too — the waiters' channels are closed when the reader loop exits.
func TestSessionServerDeathFailsWaiters(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	srv := serveStub(t, func(op wire.ClientOp, key string, val []byte) ([]byte, error) {
		<-block
		return nil, nil
	})
	sess, err := DialNode(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	done := make(chan error, 1)
	go func() {
		_, err := sess.Get("parked")
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	go srv.Close() // Close blocks on the parked handler; the conn dies first
	select {
	case err := <-done:
		if !errors.Is(err, ErrSessionClosed) {
			t.Fatalf("waiter failed with %v, want ErrSessionClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter still parked after server close")
	}
}

// TestSessionResponsesInOneSegment drives a session against a scripted
// node: responses written in one conn.Write are all matched to their
// waiters, a response cut across two writes reassembles, and Close still
// fails a waiter while the session's reader is parked inside its buffer on
// half a frame.
func TestSessionResponsesInOneSegment(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const reqs = 8
	halfSent := make(chan struct{})
	nodeDone := make(chan error, 1)
	go func() {
		nodeDone <- func() error {
			conn, err := ln.Accept()
			if err != nil {
				return err
			}
			defer conn.Close()
			// Collect every request, then answer them all at once: the
			// first reqs whole, the last one cut in two — and then half of a
			// response nobody completes.
			frame := func(id uint64) []byte {
				b, err := transport.AppendFrame(nil, wire.ClientResponse{ID: id, Status: wire.StatusOK, Val: []byte(fmt.Sprint("v", id))}, wire.AppendClientResponse)
				if err != nil {
					t.Error(err)
				}
				return b
			}
			fr := transport.NewFrameReader(conn, wire.MaxClientFrame)
			var burst []byte
			var last []byte
			for i := 0; i <= reqs; i++ {
				body, err := fr.Next()
				if err != nil {
					return err
				}
				req, err := wire.DecodeClientRequest(body)
				if err != nil {
					return err
				}
				if i < reqs {
					burst = append(burst, frame(req.ID)...)
				} else {
					last = frame(req.ID)
				}
			}
			for _, part := range [][]byte{append(burst, last[:6]...), last[6:]} {
				if _, err := conn.Write(part); err != nil {
					return err
				}
			}
			body, err := fr.Next() // the request that will be left hanging
			if err != nil {
				return err
			}
			req, err := wire.DecodeClientRequest(body)
			if err != nil {
				return err
			}
			if _, err := conn.Write(frame(req.ID)[:6]); err != nil {
				return err
			}
			close(halfSent)
			fr.Next() // parks until the session hangs up (EOF or a reset)
			return nil
		}()
	}()

	sess, err := DialNode(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	var wg sync.WaitGroup
	for i := 0; i <= reqs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sess.Get("k"); err != nil {
				t.Errorf("get answered in a shared segment: %v", err)
			}
		}()
	}
	wg.Wait()

	hung := make(chan error, 1)
	go func() {
		_, err := sess.Get("hung")
		hung <- err
	}()
	<-halfSent
	sess.Close()
	select {
	case err := <-hung:
		if !errors.Is(err, ErrSessionClosed) {
			t.Fatalf("waiter behind half a response failed with %v, want ErrSessionClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter still parked after Close with half a response buffered")
	}
	if err := <-nodeDone; err != nil {
		t.Fatalf("scripted node: %v", err)
	}
}

// The routing client fails over to the next quorum-group member when its
// preferred one is unreachable, and sticks to working sessions after.
func TestClientFailover(t *testing.T) {
	var served atomic.Int32
	srv := serveStub(t, func(op wire.ClientOp, key string, val []byte) ([]byte, error) {
		served.Add(1)
		return []byte("live"), nil
	})

	// A listener that is already closed: dials are refused immediately.
	deadLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := deadLn.Addr().String()
	deadLn.Close()

	cl, err := New(oneShardConfig(deadAddr, srv.Addr()), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 3; i++ {
		if v, err := cl.Get("k"); err != nil || string(v) != "live" {
			t.Fatalf("get %d through failover: %q, %v", i, v, err)
		}
	}
	if got := served.Load(); got != 3 {
		t.Fatalf("live member served %d requests, want 3", got)
	}
}

// scriptedMember is a client port that reads one request and answers it
// with reply's raw bytes, then hangs up (with no reply, it only hangs up).
// calls counts the requests it read.
func scriptedMember(t *testing.T, reply []byte, calls *atomic.Int32) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := transport.NewFrameReader(conn, wire.MaxClientFrame).Next(); err == nil {
			calls.Add(1)
			conn.Write(reply)
		}
	}()
	return ln.Addr().String()
}

// The failure rule, class by class: the first member fails the Get one way
// and a healthy member stands behind it. A member that could not be
// reached or could not answer hands the Get on; a rejection the server
// answered is returned without trying the next member.
func TestClientFailoverRule(t *testing.T) {
	type member func(t *testing.T, calls *atomic.Int32) string
	refused := func(t *testing.T, _ *atomic.Int32) string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ln.Close()
		return ln.Addr().String()
	}
	failing := func(err error) member {
		return func(t *testing.T, calls *atomic.Int32) string {
			return serveStub(t, func(wire.ClientOp, string, []byte) ([]byte, error) {
				calls.Add(1)
				return nil, err
			}).Addr()
		}
	}
	scripted := func(reply []byte) member {
		return func(t *testing.T, calls *atomic.Int32) string { return scriptedMember(t, reply, calls) }
	}
	var serverErr *ServerError
	cases := []struct {
		name  string
		first member
		// terminal, when set, is the error the Get must end with; nil means
		// the healthy member answers it.
		terminal func(error) bool
	}{
		{"dial refused", refused, nil},
		{"StatusUnavailable", failing(shard.ErrUnavailable), nil},
		{"closed session", scripted(nil), nil},
		// A one-byte body: the response decoder runs out of bytes.
		{"malformed response", scripted([]byte{0, 0, 0, 1, wire.ClientProtoVersion}), nil},
		{"StatusWrongShard", failing(shard.ErrWrongShard), func(err error) bool { return errors.Is(err, shard.ErrWrongShard) }},
		{"StatusErr", failing(errors.New("application says no")), func(err error) bool { return errors.As(err, &serverErr) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var firstCalls, healthyCalls atomic.Int32
			healthy := serveStub(t, func(wire.ClientOp, string, []byte) ([]byte, error) {
				healthyCalls.Add(1)
				return []byte("ok"), nil
			})
			cl, err := New(oneShardConfig(c.first(t, &firstCalls), healthy.Addr()), 0)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			v, err := cl.Get("k")
			switch {
			case c.terminal == nil && (err != nil || string(v) != "ok"):
				t.Fatalf("Get behind a %s: %q, %v; want the next member's answer", c.name, v, err)
			case c.terminal != nil && (!c.terminal(err) || healthyCalls.Load() != 0):
				t.Fatalf("Get behind a %s: %v after %d calls to the next member; want that error, terminal", c.name, err, healthyCalls.Load())
			}
			if c.name != "dial refused" && firstCalls.Load() != 1 {
				t.Fatalf("first member read %d requests, want 1", firstCalls.Load())
			}
		})
	}
}

// Every member down: the error names the shard and wraps the last cause so
// callers can still errors.Is it.
func TestClientAllMembersDown(t *testing.T) {
	lns := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln.Addr().String()
		ln.Close()
	}
	cl, err := New(oneShardConfig(lns...), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Get("k"); err == nil {
		t.Fatal("get succeeded with every member down")
	} else if !strings.Contains(err.Error(), "shard 0") {
		t.Fatalf("error does not name the shard: %v", err)
	}
}

// Keys route by placement: with two shards mounted as separate stub
// servers, each key's request lands on the server owning its shard.
func TestClientRoutesByShard(t *testing.T) {
	var hits [2]atomic.Int32
	srvs := make([]*shard.Server, 2)
	addrs := make([]string, 2)
	for s := 0; s < 2; s++ {
		s := s
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv, err := shard.Serve(ln, s, 2, func(op wire.ClientOp, key string, val []byte) ([]byte, error) {
			hits[s].Add(1)
			return []byte(fmt.Sprintf("shard%d", s)), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		srvs[s] = srv
		addrs[s] = srv.Addr()
	}
	cfg := &shard.ClusterConfig{Shards: []shard.Shard{
		{Procs: []shard.Proc{{Client: addrs[0]}}},
		{Procs: []shard.Proc{{Client: addrs[1]}}},
	}}
	cl, err := New(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	total := 0
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("route-key-%03d", i)
		want := fmt.Sprintf("shard%d", cfg.ShardOf(key))
		v, err := cl.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if string(v) != want {
			t.Fatalf("key %q served by %q, want %q", key, v, want)
		}
		total++
	}
	if hits[0].Load() == 0 || hits[1].Load() == 0 || int(hits[0].Load()+hits[1].Load()) != total {
		t.Fatalf("hit spread %d/%d over %d ops", hits[0].Load(), hits[1].Load(), total)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	var ce *shard.ConfigError
	if _, err := New(&shard.ClusterConfig{}, 0); !errors.As(err, &ce) {
		t.Fatalf("empty config: %v", err)
	}
	if _, err := New(oneShardConfig("127.0.0.1:9"), -1); !errors.As(err, &ce) {
		t.Fatalf("negative prefer: %v", err)
	}
}
