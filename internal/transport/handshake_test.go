package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"twobitreg/internal/core"
	"twobitreg/internal/proto"
	"twobitreg/internal/wire"
)

// The handshake tests script the other end of a link by hand — a raw
// connection speaking the hello at incarnations the test picks — and record
// what the mesh under test does in one ordered log: every delivery, and
// every restart callback.

type eventLog struct {
	mu     sync.Mutex
	events []string
}

func (l *eventLog) add(e string) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

func (l *eventLog) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.events...)
}

func (l *eventLog) wantExactly(t *testing.T, want ...string) {
	t.Helper()
	waitUntil(t, fmt.Sprintf("events %v", want), func() bool { return len(l.snapshot()) >= len(want) })
	time.Sleep(20 * time.Millisecond) // anything the mesh should not have done would show up now
	if got := l.snapshot(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("events %v, want %v", got, want)
	}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func valMsg(v string) proto.Message { return core.WriteMsg{Bit: 1, Val: []byte(v)} }

// loggedMesh starts process 0 of 2, subscribed to restarts, logging
// deliveries as "recv <value>" and callbacks as "restart <peer>".
func loggedMesh(t *testing.T, log *eventLog, peerAddr string, opts ...MeshOption) *Mesh {
	t.Helper()
	m, err := NewMesh(0, 2, "127.0.0.1:0", wire.Codec{}, func(from int, msg proto.Message) {
		log.add("recv " + string(msg.(core.WriteMsg).Val))
	}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	m.OnPeerRestart(func(peer int) { log.add(fmt.Sprintf("restart %d", peer)) })
	if err := m.SetPeers([]string{m.Addr(), peerAddr}); err != nil {
		t.Fatal(err)
	}
	return m
}

// dialAs opens a connection to m as process 1 at incarnation inc, writing
// the hello and frames in one segment, and consumes the reply.
func dialAs(t *testing.T, m *Mesh, inc uint64, frames ...proto.Message) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write(append(helloBytes(1, inc), frameStream(t, frames...)...)); err != nil {
		t.Fatal(err)
	}
	var reply [replyLen]byte
	if _, err := io.ReadFull(conn, reply[:]); err != nil {
		t.Fatalf("no handshake reply: %v", err)
	}
	if got := binary.BigEndian.Uint64(reply[:]); got != m.inc {
		t.Fatalf("handshake reply carries incarnation %d, want the mesh's %d", got, m.inc)
	}
	return conn
}

// deadAddr is a loopback address nothing listens on.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// TestHandshakeInboundRestart: the acceptor learns a peer's incarnation
// from its hello. First contact is not a restart; the same incarnation
// again is a reconnect; a higher one fires the callback exactly once, and
// before the first frame of the connection that brought it; a lower one is
// a process already replaced, and its connection is refused.
func TestHandshakeInboundRestart(t *testing.T) {
	t.Parallel()
	log := &eventLog{}
	m := loggedMesh(t, log, deadAddr(t))
	dialAs(t, m, 10, valMsg("a1"))
	log.wantExactly(t, "recv a1")
	dialAs(t, m, 10, valMsg("a2"))
	log.wantExactly(t, "recv a1", "recv a2")
	if st := m.Stats(); st.Reconnects != 1 || st.PeerRestarts != 0 {
		t.Fatalf("two connections of one incarnation: %v; want 1 reconnect, 0 restarts", st)
	}

	dialAs(t, m, 20, valMsg("b1"))
	log.wantExactly(t, "recv a1", "recv a2", "restart 1", "recv b1")
	dialAs(t, m, 20, valMsg("b2"))
	log.wantExactly(t, "recv a1", "recv a2", "restart 1", "recv b1", "recv b2")
	stale := dialAs(t, m, 10, valMsg("a3"))
	log.wantExactly(t, "recv a1", "recv a2", "restart 1", "recv b1", "recv b2")
	wantNoMoreFrames(t, NewFrameReader(stale, MaxFrame))
	if st := m.Stats(); st.PeerRestarts != 1 {
		t.Fatalf("%d restarts counted, want 1 (%v)", st.PeerRestarts, st)
	}
}

// TestHandshakeFencesOldIncarnation: a frame the dead incarnation left
// buffered on its connection must not reach a link that has been reset. The
// reader of the old connection is held inside a delivery with a second
// frame already buffered behind it while the new incarnation handshakes:
// the callback waits that delivery out (it precedes the reset), and the
// buffered frame is dropped and counted.
func TestHandshakeFencesOldIncarnation(t *testing.T) {
	t.Parallel()
	log := &eventLog{}
	entered, release := make(chan struct{}), make(chan struct{})
	m, err := NewMesh(0, 2, "127.0.0.1:0", wire.Codec{}, func(from int, msg proto.Message) {
		v := string(msg.(core.WriteMsg).Val)
		if v == "old1" {
			close(entered)
			<-release
		}
		log.add("recv " + v)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.OnPeerRestart(func(peer int) { log.add(fmt.Sprintf("restart %d", peer)) })

	dialAs(t, m, 10, valMsg("old1"), valMsg("old2"))
	<-entered
	// The new incarnation's hello and first frame; its reply is written
	// before the restart runs, so dialAs returns while the callback waits.
	dialAs(t, m, 20, valMsg("new1"))
	waitUntil(t, "the restart to begin", func() bool { return m.Stats().PeerRestarts == 1 })
	if got := log.snapshot(); len(got) != 0 {
		t.Fatalf("events %v before the old incarnation's delivery returned", got)
	}
	close(release)
	log.wantExactly(t, "recv old1", "restart 1", "recv new1")
	if st := m.Stats(); st.FramesFenced != 1 || st.FramesReceived != 2 {
		t.Fatalf("fenced %d, received %d; want old2 fenced and two frames delivered (%v)",
			st.FramesFenced, st.FramesReceived, st)
	}
}

// scriptedPeer listens as process 1; the test accepts each connection and
// answers its hello when, and with the incarnation, it chooses.
type scriptedPeer struct {
	t  *testing.T
	ln net.Listener
}

func listenAsPeer(t *testing.T) *scriptedPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return &scriptedPeer{t: t, ln: ln}
}

// accept takes the next connection and reads its hello, which must be
// process 0's.
func (sp *scriptedPeer) accept() net.Conn {
	sp.t.Helper()
	sp.ln.(*net.TCPListener).SetDeadline(time.Now().Add(5 * time.Second))
	conn, err := sp.ln.Accept()
	if err != nil {
		sp.t.Fatalf("the mesh never dialed: %v", err)
	}
	sp.t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	var hello [helloLen]byte
	if _, err := io.ReadFull(conn, hello[:]); err != nil || hello[0] != 0 {
		sp.t.Fatalf("hello %v, %v; want process 0's", hello, err)
	}
	return conn
}

func reply(t *testing.T, conn net.Conn, inc uint64) {
	t.Helper()
	if _, err := conn.Write(binary.BigEndian.AppendUint64(nil, inc)); err != nil {
		t.Fatal(err)
	}
}

// nextVal reads one frame and returns its value.
func nextVal(t *testing.T, fr *FrameReader) string {
	t.Helper()
	msg, err := readFrame(fr)
	if err != nil {
		t.Fatalf("reading a frame: %v", err)
	}
	return string(msg.(core.WriteMsg).Val)
}

// wantNoMoreFrames reads to the end of the stream, which must come without
// another frame.
func wantNoMoreFrames(t *testing.T, fr *FrameReader) {
	t.Helper()
	if msg, err := readFrame(fr); err != io.EOF {
		t.Fatalf("read %v, %v; want the connection closed with nothing further on it", msg, err)
	}
}

// TestHandshakeOutboundRestart: the dialer learns a peer's incarnation from
// the reply. When a redial finds a higher one, the callback fires exactly
// once and before anything is written to the new incarnation: the batch
// taken before it is void, so is everything sent until the subscriber
// answers with PeerRestarted, and the connection that brought the news is
// not kept. What is sent after the answer arrives, on a connection of its
// own.
func TestHandshakeOutboundRestart(t *testing.T) {
	t.Parallel()
	log := &eventLog{}
	sp := listenAsPeer(t)
	m := loggedMesh(t, log, sp.ln.Addr().String(), WithDialRetry(40, time.Millisecond))
	send := func(v string) {
		if err := m.Send(1, valMsg(v)); err != nil {
			t.Error(err)
		}
	}

	send("a1")
	first := sp.accept()
	reply(t, first, 10)
	if got := nextVal(t, NewFrameReader(first, MaxFrame)); got != "a1" {
		t.Fatalf("first connection carried %q, want a1", got)
	}
	first.Close() // the peer dies

	// Keep sending until the mesh has noticed and redialed: the sender is
	// then parked in the handshake with a batch in hand and more queued
	// behind it, all built before the restart.
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
				send("void")
			}
		}
	}()
	second := sp.accept()
	close(stop)
	<-stopped
	reply(t, second, 20)
	log.wantExactly(t, "restart 1")
	wantNoMoreFrames(t, NewFrameReader(second, MaxFrame))

	send("still void") // the subscriber has not reset yet
	m.PeerRestarted(1)
	send("b1")
	third := sp.accept()
	reply(t, third, 20)
	fr := NewFrameReader(third, MaxFrame)
	if got := nextVal(t, fr); got != "b1" {
		t.Fatalf("the new incarnation's first frame is %q, want b1: only what follows the reset may reach it", got)
	}
	m.Close()
	wantNoMoreFrames(t, fr)
	log.wantExactly(t, "restart 1")
	if st := m.Stats(); st.PeerRestarts != 1 {
		t.Fatalf("%d restarts counted, want 1 (%v)", st.PeerRestarts, st)
	}
}

// TestHandshakeFirstContactAfterLoss is the one edge where first contact
// must count as a restart: the link dropped frames — here a dial cycle
// that ran out — before it ever learned the peer's incarnation. No lane
// resends them, so the subscriber has to reset and re-ship.
func TestHandshakeFirstContactAfterLoss(t *testing.T) {
	t.Parallel()
	log := &eventLog{}
	m := loggedMesh(t, log, deadAddr(t), WithDialRetry(1, time.Millisecond))
	if err := m.Send(1, valMsg("lost")); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the dial cycle to give up", func() bool { return m.Stats().FramesDropped == 1 })
	dialAs(t, m, 10, valMsg("a1"))
	log.wantExactly(t, "restart 1", "recv a1")
}

// TestHandshakeStraddlingDialNotPublished: a dial in progress when the
// epoch moves may have reached the incarnation the bump replaced, so it is
// broken off rather than kept, and the batch it was for is dropped; the
// next frame dials afresh.
func TestHandshakeStraddlingDialNotPublished(t *testing.T) {
	t.Parallel()
	sp := listenAsPeer(t)
	// No subscriber: the first contact below follows a dropped batch, and
	// only the epoch's effect on the dial is under test.
	m, err := NewMesh(0, 2, "127.0.0.1:0", wire.Codec{}, func(int, proto.Message) {}, WithDialRetry(1, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.SetPeers([]string{m.Addr(), sp.ln.Addr().String()}); err != nil {
		t.Fatal(err)
	}
	if err := m.Send(1, valMsg("before")); err != nil {
		t.Fatal(err)
	}
	straddler := sp.accept() // hello read, reply withheld: the dial is in progress
	m.PeerRestarted(1)
	waitUntil(t, "the batch to be dropped", func() bool { return m.Stats().FramesDropped == 1 })
	wantNoMoreFrames(t, NewFrameReader(straddler, MaxFrame))
	if err := m.Send(1, valMsg("after")); err != nil {
		t.Fatal(err)
	}
	fresh := sp.accept()
	reply(t, fresh, 10)
	fr := NewFrameReader(fresh, MaxFrame)
	if got := nextVal(t, fr); got != "after" {
		t.Fatalf("the fresh connection's first frame is %q, want after", got)
	}
	m.Close()
	wantNoMoreFrames(t, fr)
}
