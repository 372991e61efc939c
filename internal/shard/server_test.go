package shard

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"twobitreg/internal/cluster"
	"twobitreg/internal/transport"
	"twobitreg/internal/wire"
)

func serveTest(t *testing.T, shardIdx, nshards int, h Handler) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(ln, shardIdx, nshards, h)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// rawConn is a scripted client's connection: requests framed with
// transport.AppendFrame, responses read through one transport.FrameReader,
// as the production ends do.
type rawConn struct {
	net.Conn
	fr *transport.FrameReader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawConn{Conn: conn, fr: transport.NewFrameReader(conn, wire.MaxClientFrame)}
}

// requestFrame frames one request.
func requestFrame(t *testing.T, req wire.ClientRequest) []byte {
	t.Helper()
	b, err := transport.AppendFrame(nil, req, wire.AppendClientRequest)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func sendReq(t *testing.T, conn *rawConn, req wire.ClientRequest) {
	t.Helper()
	if _, err := conn.Write(requestFrame(t, req)); err != nil {
		t.Fatal(err)
	}
}

func readResp(t *testing.T, conn *rawConn) wire.ClientResponse {
	t.Helper()
	body, err := conn.fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := wire.DecodeClientResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func waitSessions(t *testing.T, srv *Server, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for srv.ActiveSessions() != want {
		if time.Now().After(deadline) {
			t.Fatalf("sessions stuck at %d, want %d", srv.ActiveSessions(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// A session must stay accounted for until both the connection is gone and
// every in-flight request has drained, so Close never abandons work.
func TestSessionTeardownWaitsForInflight(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	srv := serveTest(t, 0, 1, func(op wire.ClientOp, key string, val []byte) ([]byte, error) {
		entered <- struct{}{}
		<-release
		return []byte("late"), nil
	})

	conn := dialRaw(t, srv.Addr())
	sendReq(t, conn, wire.ClientRequest{ID: 1, Op: wire.ClientGet, Key: "k"})
	<-entered
	if got := srv.ActiveSessions(); got != 1 {
		t.Fatalf("sessions=%d with a request in flight", got)
	}

	// Client vanishes mid-request: the handler is still running, so the
	// session must not be torn down yet.
	conn.Close()
	time.Sleep(20 * time.Millisecond)
	if got := srv.ActiveSessions(); got != 1 {
		t.Fatalf("sessions=%d after disconnect with handler still running", got)
	}

	close(release)
	waitSessions(t, srv, 0)
}

func TestSessionTeardownOnDisconnect(t *testing.T) {
	srv := serveTest(t, 0, 1, func(op wire.ClientOp, key string, val []byte) ([]byte, error) {
		return nil, nil
	})
	conns := make([]*rawConn, 3)
	for i := range conns {
		c := dialRaw(t, srv.Addr())
		// Prove the session is live before counting it.
		sendReq(t, c, wire.ClientRequest{ID: uint64(i + 1), Op: wire.ClientGet, Key: "k"})
		readResp(t, c)
		conns[i] = c
	}
	waitSessions(t, srv, 3)
	conns[1].Close()
	waitSessions(t, srv, 2)
	conns[0].Close()
	conns[2].Close()
	waitSessions(t, srv, 0)
}

func TestServerWrongShard(t *testing.T) {
	srv := serveTest(t, 1, 4, func(op wire.ClientOp, key string, val []byte) ([]byte, error) {
		return []byte("served"), nil
	})
	conn := dialRaw(t, srv.Addr())

	// Find one key this shard owns and one it does not.
	var owned, foreign string
	for i := 0; owned == "" || foreign == ""; i++ {
		k := "probe-" + strings.Repeat("x", i%7) + string(rune('a'+i%26))
		if ShardOfKey(k, 4) == 1 {
			owned = k
		} else {
			foreign = k
		}
	}

	sendReq(t, conn, wire.ClientRequest{ID: 1, Op: wire.ClientGet, Key: foreign})
	if resp := readResp(t, conn); resp.Status != wire.StatusWrongShard {
		t.Fatalf("foreign key: %+v", resp)
	}
	sendReq(t, conn, wire.ClientRequest{ID: 2, Op: wire.ClientGet, Key: owned})
	if resp := readResp(t, conn); resp.Status != wire.StatusOK || string(resp.Val) != "served" {
		t.Fatalf("owned key: %+v", resp)
	}
}

// Handler errors map onto protocol statuses (statusOf), including wrapped
// sentinels and a node stopped under the request.
func TestServerStatusMapping(t *testing.T) {
	cases := []struct {
		key  string
		err  error
		want wire.ClientStatus
	}{
		{"ok", nil, wire.StatusOK},
		{"unavail", ErrUnavailable, wire.StatusUnavailable},
		{"wrapped", &wrapErr{ErrUnavailable}, wire.StatusUnavailable},
		{"stopped", cluster.ErrStopped, wire.StatusUnavailable},
		{"misplaced", ErrWrongShard, wire.StatusWrongShard},
		{"other", &ConfigError{Field: "x", Reason: "generic failure"}, wire.StatusErr},
	}
	errs := make(map[string]error)
	for _, c := range cases {
		errs[c.key] = c.err
	}
	srv := serveTest(t, 0, 1, func(op wire.ClientOp, key string, val []byte) ([]byte, error) {
		return nil, errs[key]
	})
	conn := dialRaw(t, srv.Addr())
	for i, c := range cases {
		sendReq(t, conn, wire.ClientRequest{ID: uint64(i + 1), Op: wire.ClientGet, Key: c.key})
		resp := readResp(t, conn)
		if resp.Status != c.want || (c.err != nil) != (resp.Err != "") {
			t.Fatalf("%s: %+v, want status %d", c.key, resp, c.want)
		}
	}
}

type wrapErr struct{ inner error }

func (w *wrapErr) Error() string { return "wrapped: " + w.inner.Error() }
func (w *wrapErr) Unwrap() error { return w.inner }

// A malformed frame gets one StatusErr response and then the session dies;
// it must not take the rest of the server with it.
func TestServerDropsMalformedSession(t *testing.T) {
	srv := serveTest(t, 0, 1, func(op wire.ClientOp, key string, val []byte) ([]byte, error) {
		return []byte("ok"), nil
	})
	bad := dialRaw(t, srv.Addr())
	if _, err := bad.Write([]byte{0, 0, 0, 2, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	if resp := readResp(t, bad); resp.Status != wire.StatusErr {
		t.Fatalf("malformed frame: %+v", resp)
	}
	if _, err := bad.fr.Next(); err == nil {
		t.Fatal("session survived a malformed frame")
	}
	waitSessions(t, srv, 0)

	good := dialRaw(t, srv.Addr())
	sendReq(t, good, wire.ClientRequest{ID: 1, Op: wire.ClientGet, Key: "k"})
	if resp := readResp(t, good); resp.Status != wire.StatusOK {
		t.Fatalf("server unhealthy after dropping a bad session: %+v", resp)
	}
}

// StartLocal is the in-process production stack: keyed reads and writes land
// on the right quorum group and survive the loss of one process per shard.
func TestStartLocalSmoke(t *testing.T) {
	lc, err := StartLocal(2, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	if got := len(lc.Config.Shards); got != 2 {
		t.Fatalf("shards=%d", got)
	}

	put := func(s, proc int, key, val string) wire.ClientResponse {
		conn := dialRaw(t, lc.Member(s, proc).ClientAddr())
		defer conn.Close()
		sendReq(t, conn, wire.ClientRequest{ID: 1, Op: wire.ClientPut, Key: key, Val: []byte(val)})
		return readResp(t, conn)
	}
	get := func(s, proc int, key string) wire.ClientResponse {
		conn := dialRaw(t, lc.Member(s, proc).ClientAddr())
		defer conn.Close()
		sendReq(t, conn, wire.ClientRequest{ID: 2, Op: wire.ClientGet, Key: key})
		return readResp(t, conn)
	}

	// One key per shard, written and read through different members.
	keys := [2]string{}
	for i := 0; keys[0] == "" || keys[1] == ""; i++ {
		k := "smoke-" + string(rune('a'+i%26)) + string(rune('0'+i%10))
		keys[lc.Config.ShardOf(k)] = k
	}
	for s, k := range keys {
		if resp := put(s, 0, k, "v-"+k); resp.Status != wire.StatusOK {
			t.Fatalf("put shard %d: %+v", s, resp)
		}
		if resp := get(s, 1, k); resp.Status != wire.StatusOK || string(resp.Val) != "v-"+k {
			t.Fatalf("get shard %d: %+v", s, resp)
		}
	}

	// Kill one process per shard; the survivors still hold a majority.
	lc.KillProc(0, 0)
	lc.KillProc(1, 2)
	if resp := get(0, 1, keys[0]); resp.Status != wire.StatusOK || string(resp.Val) != "v-"+keys[0] {
		t.Fatalf("shard 0 after kill: %+v", resp)
	}
	if resp := put(1, 0, keys[1], "v2"); resp.Status != wire.StatusOK {
		t.Fatalf("shard 1 write after kill: %+v", resp)
	}
	if resp := get(1, 1, keys[1]); resp.Status != wire.StatusOK || string(resp.Val) != "v2" {
		t.Fatalf("shard 1 read after kill: %+v", resp)
	}
}

// TestServerRequestsInOneSegment: a pipelining client's requests routinely
// share a segment. Every request written in one conn.Write is served, a
// request cut across two writes reassembles, and Close still returns while
// the session's reader is parked inside its buffer on half a frame.
func TestServerRequestsInOneSegment(t *testing.T) {
	srv := serveTest(t, 0, 1, func(op wire.ClientOp, key string, val []byte) ([]byte, error) {
		return []byte(key), nil
	})
	conn := dialRaw(t, srv.Addr())

	const reqs = 32
	var burst []byte
	frame := func(id uint64) []byte {
		return requestFrame(t, wire.ClientRequest{ID: id, Op: wire.ClientGet, Key: fmt.Sprintf("k%d", id)})
	}
	for id := uint64(1); id <= reqs; id++ {
		burst = append(burst, frame(id)...)
	}
	split := frame(reqs + 1)
	for _, part := range [][]byte{append(burst, split[:5]...), split[5:], split[:5]} {
		if _, err := conn.Write(part); err != nil {
			t.Fatal(err)
		}
	}
	// Responses return in completion order; match them by id.
	seen := make(map[uint64]bool)
	for i := 0; i <= reqs; i++ {
		resp := readResp(t, conn)
		if resp.Status != wire.StatusOK || string(resp.Val) != fmt.Sprintf("k%d", resp.ID) || seen[resp.ID] {
			t.Fatalf("response %d: %+v", i, resp)
		}
		seen[resp.ID] = true
	}
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hangs on a session reader parked mid-frame")
	}
	if got := srv.ActiveSessions(); got != 0 {
		t.Fatalf("%d sessions survive Close", got)
	}
}
