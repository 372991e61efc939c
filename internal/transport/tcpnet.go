package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"twobitreg/internal/proto"
)

// Codec serializes protocol messages for byte-stream transports. The
// two-bit register's codec lives in internal/wire; injecting it here keeps
// this package protocol-agnostic (and free of import cycles). AppendEncode
// appends into a caller-owned buffer, so each peer's sender assembles a
// whole batch of outbound frames in one reused buffer.
type Codec interface {
	AppendEncode(dst []byte, msg proto.Message) ([]byte, error)
	Decode(b []byte) (proto.Message, error)
}

// MaxFrame bounds inbound frames against corrupt or malicious peers: the
// largest value a client may Put (1<<24 bytes) plus 1 KiB for its keyed
// frame's headers, a relation wire's tests pin.
const MaxFrame = 1<<24 + 1<<10

// maxBatchBytes flushes a sender's coalescing buffer mid-drain once it
// grows past this size, bounding memory and syscall payload alike.
const maxBatchBytes = 256 << 10

// Dial behaviour: a peer's sender keeps the link up, redialing with
// jittered backoff between attempts. One full cycle of DialRetries spans
// ~10s of base backoff — long enough to ride out a peer restart.
const (
	DialRetries = 40
	DialBackoff = 250 * time.Millisecond
)

// The handshake: the dialer sends its id and incarnation, the acceptor
// answers its own.
const (
	helloLen = 1 + 8
	replyLen = 8
)

// HandshakeTimeout bounds one dial attempt, connect and handshake together,
// so a host that drops SYNs costs the caller seconds, not the kernel's
// minutes-long SYN-retry budget. regclient bounds its connects by it too.
const HandshakeTimeout = 5 * time.Second

// DefaultQueueCap is the per-peer outbound queue bound: far above the
// in-flight frame count a live peer ever accumulates under the closed-loop
// quorum protocols, so only dead or stalled peers ever fill it. A frame
// sent to a full queue is dropped and counted in MeshStats.FramesDropped:
// the crash-fault model already tolerates losing messages to crashed
// processes (quorums are majorities), and never blocking the caller is
// what keeps one dead or stalled peer from stalling traffic to the rest.
const DefaultQueueCap = 1024

// meshConfig is the tunable behaviour, set via MeshOption.
type meshConfig struct {
	queueCap    int
	dialRetries int
	dialBackoff time.Duration
}

// MeshOption customizes NewMesh.
type MeshOption func(*meshConfig)

// WithQueueCap sets the per-peer outbound queue bound (frames).
func WithQueueCap(frames int) MeshOption {
	return func(c *meshConfig) { c.queueCap = frames }
}

// WithDialRetry overrides the per-cycle dial attempt count and base
// backoff (jitter is applied on top).
func WithDialRetry(retries int, backoff time.Duration) MeshOption {
	return func(c *meshConfig) { c.dialRetries, c.dialBackoff = retries, backoff }
}

// Mesh is one process's TCP endpoint in a fully connected cluster running
// the two-bit register. Messages travel length-framed in the two-bit wire
// format (internal/wire) over connections opened by a two-way handshake.
//
// Construction is two-phase so clusters can bind ephemeral ports first and
// exchange the resulting addresses afterwards: NewMesh starts the listener,
// SetPeers supplies the full address table (and starts one pipelined sender
// per peer), and only then may Send be used.
//
// # The handshake
//
// A mesh's incarnation is its boot time in nanoseconds: a process started
// later on the same address presents a higher one, and nothing need be
// persisted, since a dead process cannot complete a handshake. The dialer
// opens a connection with (its id, its incarnation) and the acceptor
// answers its own, before any frame — connection framing like the sender
// id, not message control. When either direction learns an incarnation
// above the one held, the peer has restarted, and before a frame of that
// connection is delivered or written the mesh fences the old incarnation's
// connections (what they still buffer is dropped, FramesFenced) and, for a
// subscriber (OnPeerRestart), voids the send side and runs the callback. A
// handshake below the incarnation held is a process already replaced, and
// is refused. First contact is not a restart — except on a link that
// dropped frames before it learned anything: no lane resends them.
//
// # The send path
//
// Send enqueues the frame on the destination peer's bounded queue, or
// counts it dropped when the queue is full, and returns; it never touches a
// socket. Each peer's dedicated sender goroutine is the only writer of its
// connection: it drains *everything* queued per wakeup into a single
// conn.Write (writev-style batching through one reused encode buffer), so
// frames that accumulate while a write or a redial is in flight share one
// syscall. Dialing — with jittered backoff between attempts — happens on
// that goroutine too, so neither a dead peer's redial cycle nor a live peer
// that stops reading delays the caller or frames to other peers: either
// one's queue overflow is dropped and counted. proto.Flusher-style
// coalescing composes: a flush burst handed to Send in one event-loop step
// lands in one queue drain, hence one syscall per peer.
//
// Delivery semantics are at-most-once: frames to one peer never duplicate
// or interleave, and are FIFO within a connection's lifetime; frames
// buffered or mid-write when a connection breaks (or queued beyond the
// bound of a dead peer) are dropped, counted in MeshStats, never resent.
// That is exactly the paper's crash model: reliable FIFO links between
// live processes in the steady state, loss toward crashed ones. A live peer
// that stops reading until its queue fills loses frames the same way, which
// is outside that model: the caller is never held, and the frames are the
// price. (Across a forced reconnect the old connection's in-flight tail may
// drain concurrently with the new connection's first frames — loss plus a
// bounded reorder window, which the protocol's quorum retries and rejoin
// re-anchor absorb.)
type Mesh struct {
	self    int
	n       int
	inc     uint64 // this boot's incarnation, never 0
	codec   Codec
	deliver func(from int, msg proto.Message)
	ln      net.Listener
	cfg     meshConfig

	// peers (index = process id, nil for self) is fixed at NewMesh: inbound
	// handshakes need it before SetPeers starts the senders and Send.
	peers   []*peer
	started atomic.Bool

	mu        sync.Mutex       // orders SetPeers against Close; guards the fields below
	inbound   map[net.Conn]int // accepted, closed on shutdown; the sender's id once handshaken, else -1
	onRestart func(peer int)

	framesRecv   atomic.Int64
	framesFenced atomic.Int64
	decodeErrs   atomic.Int64
	reconnects   atomic.Int64
	peerRestarts atomic.Int64

	done chan struct{}
	wg   sync.WaitGroup
}

// NewMesh starts listening for process self of an n-process cluster on
// listenAddr (which may name an ephemeral port, e.g. "127.0.0.1:0").
// Inbound messages are decoded with codec and passed to deliver from
// connection goroutines; the consumer must be thread-safe. Callers must
// Close the mesh.
func NewMesh(self, n int, listenAddr string, codec Codec, deliver func(from int, msg proto.Message), opts ...MeshOption) (*Mesh, error) {
	if self < 0 || self >= n {
		return nil, fmt.Errorf("transport: self %d out of range [0,%d)", self, n)
	}
	if codec == nil {
		return nil, errors.New("transport: codec is required")
	}
	cfg := meshConfig{
		queueCap:    DefaultQueueCap,
		dialRetries: DialRetries,
		dialBackoff: DialBackoff,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.queueCap < 1 {
		return nil, fmt.Errorf("transport: queue cap %d, need at least 1", cfg.queueCap)
	}
	if cfg.dialRetries < 1 {
		return nil, fmt.Errorf("transport: dial retries %d, need at least 1", cfg.dialRetries)
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", listenAddr, err)
	}
	m := &Mesh{
		self:    self,
		n:       n,
		inc:     uint64(time.Now().UnixNano()),
		codec:   codec,
		deliver: deliver,
		ln:      ln,
		cfg:     cfg,
		peers:   make([]*peer, n),
		inbound: make(map[net.Conn]int),
		done:    make(chan struct{}),
	}
	for id := range m.peers {
		if id == self {
			continue
		}
		p := &peer{m: m, id: id, bumped: make(chan struct{}, 1)}
		p.cond = sync.NewCond(&p.mu)
		p.rng = rand.New(rand.NewSource(int64(self)<<16 ^ int64(id) ^ int64(m.inc)))
		m.peers[id] = p
	}
	m.wg.Add(1)
	go m.acceptLoop()
	return m, nil
}

// Addr returns the mesh's bound listen address.
func (m *Mesh) Addr() string { return m.ln.Addr().String() }

// OnPeerRestart subscribes fn to peer restarts; call it before SetPeers.
// fn runs with the peer's handshakes held back, so it must hand the work
// on, not wait for this mesh: the subscriber resets its view of the link,
// then calls PeerRestarted(peer), and until it has, what it sends the peer
// is dropped. A mesh without a subscriber only counts and fences.
func (m *Mesh) OnPeerRestart(fn func(peer int)) {
	m.mu.Lock()
	m.onRestart = fn
	m.mu.Unlock()
}

// SetPeers supplies the cluster's address table (index = process id) and
// starts the per-peer senders. It must be called exactly once, before the
// first Send.
func (m *Mesh) SetPeers(addrs []string) error {
	if len(addrs) != m.n {
		return fmt.Errorf("transport: %d peer addrs for an %d-process mesh", len(addrs), m.n)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started.Load() {
		return errors.New("transport: SetPeers called twice")
	}
	select {
	case <-m.done:
		return errors.New("transport: mesh closed")
	default:
	}
	for id, p := range m.peers {
		if p == nil {
			continue
		}
		p.addr = addrs[id]
		m.wg.Add(1)
		go p.run()
	}
	m.started.Store(true)
	return nil
}

// peer returns the link state for process `to`, or nil for self or an id
// out of range.
func (m *Mesh) peer(to int) *peer {
	if to < 0 || to >= len(m.peers) {
		return nil
	}
	return m.peers[to]
}

// Send enqueues msg for peer `to` and returns without waiting for the
// write. A nil return means the frame was accepted by the queue — or,
// against a full queue, counted as dropped; delivery itself is asynchronous
// and at-most-once. Errors report misuse (bad destination, SetPeers not yet
// called, mesh closed), not peer health. Safe for concurrent use; frames to
// one peer are written by one goroutine and never interleave.
func (m *Mesh) Send(to int, msg proto.Message) error {
	if to == m.self || to < 0 || to >= m.n {
		return fmt.Errorf("transport: bad destination %d", to)
	}
	if !m.started.Load() {
		return errors.New("transport: Send before SetPeers")
	}
	return m.peers[to].enqueue(msg)
}

// Stats returns a snapshot of the mesh's transport counters, aggregated
// over all peers.
func (m *Mesh) Stats() MeshStats {
	var s MeshStats
	for _, p := range m.peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		s.Add(p.stats)
		p.mu.Unlock()
	}
	s.FramesReceived = m.framesRecv.Load()
	s.FramesFenced = m.framesFenced.Load()
	s.DecodeErrors = m.decodeErrs.Load()
	s.Reconnects = m.reconnects.Load()
	s.PeerRestarts = m.peerRestarts.Load()
	return s
}

// DropConn forcibly closes the current outbound connection to peer `to`,
// if one is up, and reports whether it did. Frames queued or mid-write are
// lost (at-most-once); the peer's sender redials on its next drain. This
// is fault injection for tests and chaos drills — the mid-stream
// connection-drop scenario — not part of normal operation.
func (m *Mesh) DropConn(to int) bool {
	p := m.peer(to)
	if p == nil {
		return false
	}
	p.mu.Lock()
	c := p.conn
	p.mu.Unlock()
	if c == nil {
		return false
	}
	c.Close()
	return true
}

// PeerRestarted declares that the caller has reset its view of the link to
// peer `to`, so every frame it handed to Send before is void (the reset
// re-ships what they carried): the queue is purged, counted in
// FramesDropped; a batch already taken, and a dial in progress, are fenced
// by the epoch bump; the connection is closed. It is also the subscriber's
// answer to an OnPeerRestart callback.
func (m *Mesh) PeerRestarted(to int) {
	if p := m.peer(to); p != nil {
		p.purge(false)
	}
}

// Close shuts the mesh down and waits for its goroutines. Queued and
// in-flight frames are discarded. Peers are marked closed BEFORE m.done
// closes, so a Send racing Close reports the mesh closed rather than
// queueing a frame no sender will write, and under m.mu, so SetPeers
// either ran before or starts nothing.
func (m *Mesh) Close() error {
	m.mu.Lock()
	for _, p := range m.peers {
		if p != nil {
			p.close()
		}
	}
	select {
	case <-m.done:
	default:
		close(m.done)
	}
	for c := range m.inbound {
		c.Close() // unblocks serveConn reads
	}
	m.mu.Unlock()
	err := m.ln.Close()
	m.wg.Wait()
	return err
}

// peer is the link to one other process: a bounded frame queue drained by
// a dedicated sender goroutine that owns the connection, the dial loop and
// the encode buffer, and what either direction's handshake has learned.
type peer struct {
	m    *Mesh
	id   int
	addr string // set by SetPeers, before the sender starts

	// hs serializes this peer's handshakes, in and out, and is held across
	// a restart, so no connection of the new incarnation carries a frame
	// before the callback has returned.
	hs      sync.Mutex
	inc     atomic.Uint64  // the peer's incarnation, 0 = never learned; stored under hs
	seenIn  bool           // an inbound handshake has completed before; under hs
	readers sync.WaitGroup // handshaken inbound connections still being read; Add under hs

	mu       sync.Mutex
	cond     *sync.Cond // signalled when frames are queued or the link closes
	queue    []proto.Message
	closed   bool
	conn     net.Conn           // nil while down; handshaken under the current epoch
	stopDial context.CancelFunc // ends the sender's dial attempt in progress, so a purge or close can break it
	dialed   bool               // a connection has been established at least once
	stats    MeshStats
	// epoch is bumped by every purge. A connection is bound to the epoch it
	// handshook under and a batch to the one it was taken under
	// (takenEpoch); neither outlives a bump, so a batch parked in the dial
	// cycle cannot reach the peer's next incarnation.
	epoch      uint64
	takenEpoch uint64
	// owed counts restart callbacks not yet answered with PeerRestarted:
	// until then what is sent the peer was built on link state about to be
	// reset, and is dropped.
	owed int

	// bumped wakes the sender out of its dial backoff when the epoch moves:
	// its batch is void, and the frames behind the reset must not wait out
	// an interval while the queue fills.
	bumped chan struct{}

	// Sender-goroutine-owned state (no locking needed).
	rng    *rand.Rand
	encBuf []byte
	batch  []proto.Message
}

// enqueue applies the queue bound and hands msg to the sender. It never
// touches the connection, so neither a down peer nor a live one that has
// stopped reading can hold the caller: past the bound, frames are dropped
// and counted.
func (p *peer) enqueue(msg proto.Message) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case p.closed:
		return errors.New("transport: mesh closed")
	case p.owed > 0 || len(p.queue) >= p.m.cfg.queueCap:
		p.stats.FramesDropped++
		return nil
	}
	p.queue = append(p.queue, msg)
	if len(p.queue) == 1 {
		p.cond.Signal() // wake the parked sender on empty -> non-empty
	}
	return nil
}

// close wakes and terminates the sender; queued frames are dropped.
func (p *peer) close() {
	p.mu.Lock()
	p.closed = true
	p.stats.FramesDropped += int64(len(p.queue))
	p.queue = p.queue[:0]
	conn, stop := p.conn, p.stopDial
	p.cond.Broadcast()
	p.mu.Unlock()
	breakLink(conn, stop)
}

// breakLink closes a connection and ends a dial attempt, either of which may
// be absent.
func breakLink(conn net.Conn, stopDial context.CancelFunc) {
	if conn != nil {
		conn.Close()
	}
	if stopDial != nil {
		stopDial()
	}
}

// purge voids everything handed to the link so far. restart marks the
// mesh's own purge, on learning the peer's new incarnation, which the
// subscriber owes an answer to; the answer is the other caller.
func (p *peer) purge(restart bool) {
	p.mu.Lock()
	p.stats.FramesDropped += int64(len(p.queue))
	clear(p.queue)
	p.queue = p.queue[:0]
	p.epoch++
	if restart {
		p.owed++
	} else if p.owed > 0 {
		p.owed--
	}
	conn, stop := p.conn, p.stopDial
	p.conn = nil
	p.mu.Unlock()
	select {
	case p.bumped <- struct{}{}:
	default:
	}
	breakLink(conn, stop)
}

// take blocks until frames are pending, then drains the whole queue into
// p.batch.
func (p *peer) take() bool {
	p.mu.Lock()
	for len(p.queue) == 0 && !p.closed {
		p.cond.Wait()
	}
	if p.closed {
		p.mu.Unlock()
		return false
	}
	p.batch = append(p.batch[:0], p.queue...)
	p.takenEpoch = p.epoch
	for i := range p.queue {
		p.queue[i] = nil // no retention across drains
	}
	p.queue = p.queue[:0]
	p.mu.Unlock()
	return true
}

// run is the sender goroutine, the only writer of the peer's connections:
// drain, connect if needed, write the whole batch, repeat. Connection
// failures drop the affected frames (counted) and never propagate beyond
// this peer.
func (p *peer) run() {
	defer p.m.wg.Done()
	for p.take() {
		// No connection means the dial cycle was exhausted, the mesh is
		// shutting down, or a purge overtook the batch: it is lost.
		lost := int64(len(p.batch))
		if c := p.ensureConn(); c != nil {
			lost = p.writeBatch(c)
		}
		p.mu.Lock()
		p.stats.FramesDropped += lost
		p.mu.Unlock()
	}
}

// ensureConn returns a connection handshaken under the epoch the batch in
// hand was taken under, dialing with jittered backoff if the link is down;
// nil after a full failed dial cycle, on shutdown, or once a purge has
// voided the batch.
func (p *peer) ensureConn() net.Conn {
	for attempt := 0; attempt < p.m.cfg.dialRetries; attempt++ {
		if attempt > 0 && !p.backoff() {
			return nil
		}
		p.mu.Lock()
		c, void := p.conn, p.closed || p.epoch != p.takenEpoch
		p.mu.Unlock()
		if void {
			return nil
		}
		if c == nil {
			c = p.dial()
		}
		if c != nil {
			return c
		}
	}
	return nil
}

// dial makes one attempt: TCP, the handshake, publication as p.conn. The
// attempt's context ends it at any point: after HandshakeTimeout, or when a
// purge or close cancels it (a peer that accepts but never answers, or
// never accepts, cannot hold the sender). A dial that straddles an epoch
// bump is never kept — it may have reached the incarnation the bump
// replaced.
func (p *peer) dial() net.Conn {
	ctx, cancel := context.WithTimeout(context.Background(), HandshakeTimeout)
	defer cancel()
	p.mu.Lock()
	if p.closed || p.epoch != p.takenEpoch {
		p.mu.Unlock()
		return nil
	}
	p.stopDial = cancel
	p.mu.Unlock()
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", p.addr)
	ok := err == nil
	if ok {
		stop := context.AfterFunc(ctx, func() { c.Close() })
		ok = p.handshake(c) && stop()
	}
	p.mu.Lock()
	p.stopDial = nil
	if ok = ok && !p.closed && p.epoch == p.takenEpoch; ok {
		p.conn = c
		if p.dialed {
			p.stats.Redials++
		}
		p.dialed = true
	}
	p.mu.Unlock()
	if !ok {
		if c != nil {
			c.Close()
		}
		return nil
	}
	return c
}

// handshake runs the dialer's half on c; dial's context closes c to cut it
// off.
func (p *peer) handshake(c net.Conn) bool {
	var hello [helloLen]byte
	hello[0] = byte(p.m.self)
	binary.BigEndian.PutUint64(hello[1:], p.m.inc)
	if _, err := c.Write(hello[:]); err != nil {
		return false
	}
	if _, err := io.ReadFull(c, hello[:replyLen]); err != nil {
		return false
	}
	return p.learn(binary.BigEndian.Uint64(hello[:replyLen]), nil)
}

// learn records that a connection handshook with the peer at incarnation
// inc (in is the connection if inbound, nil for a dial) and reports whether
// it may carry frames. A restart runs before learn returns, so before the
// connection carries anything.
func (p *peer) learn(inc uint64, in net.Conn) bool {
	p.hs.Lock()
	defer p.hs.Unlock()
	held := p.inc.Load()
	if inc < held || inc == 0 {
		return false
	}
	if inc > held {
		p.inc.Store(inc) // from here the old incarnation's connections are fenced
		p.mu.Lock()
		lossy := p.stats.FramesDropped > 0
		p.mu.Unlock()
		if held != 0 || lossy { // first contact is not a restart, unless frames are already lost
			p.restart()
		}
	}
	if in != nil {
		if p.seenIn {
			p.m.reconnects.Add(1)
		}
		p.seenIn = true
		p.readers.Add(1)
		p.m.mu.Lock()
		p.m.inbound[in] = p.id
		p.m.mu.Unlock()
	}
	return true
}

// restart runs the rule for a peer whose new incarnation was just learned
// (p.hs held, p.inc stored): wait out the old incarnation's readers — each
// may be one frame past its fence check — then void the send side and tell
// the subscriber.
func (p *peer) restart() {
	m := p.m
	m.peerRestarts.Add(1)
	m.mu.Lock()
	fn := m.onRestart
	for c, from := range m.inbound {
		if from == p.id {
			c.Close()
		}
	}
	m.mu.Unlock()
	p.readers.Wait()
	if fn != nil {
		p.purge(true)
		fn(p.id)
	}
}

// backoff sleeps the jittered inter-attempt delay, interruptible by
// shutdown or an epoch bump; the jitter (50–150% of base) keeps a cluster's
// redial cycles from synchronizing against a restarting peer.
func (p *peer) backoff() bool {
	base := p.m.cfg.dialBackoff
	d := time.Duration(float64(base) * (0.5 + p.rng.Float64()))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-p.m.done:
		return false
	case <-p.bumped:
		return true
	case <-t.C:
		return true
	}
}

// writeBatch encodes every frame of p.batch into the reused buffer and
// ships it in as few conn.Write calls as possible (one, unless the batch
// exceeds maxBatchBytes). A write error closes the
// connection and drops the batch's unwritten remainder — frames are never
// resent, so a reconnect cannot duplicate or interleave them. Returns the
// number of frames lost (unwritten or unencodable).
func (p *peer) writeBatch(c net.Conn) (lost int64) {
	buf := p.encBuf[:0]
	frames := int64(0)
	flush := func() bool {
		if len(buf) == 0 {
			return true
		}
		if _, err := c.Write(buf); err != nil {
			p.breakConn(c)
			lost += frames
			return false
		}
		p.mu.Lock()
		p.stats.ConnWrites++
		p.stats.FramesSent += frames
		p.stats.BytesSent += int64(len(buf))
		if frames > p.stats.MaxBatch {
			p.stats.MaxBatch = frames
		}
		p.mu.Unlock()
		buf = buf[:0]
		frames = 0
		return true
	}
	enc := p.m.codec.AppendEncode
	for i, msg := range p.batch {
		var err error
		buf, err = AppendFrame(buf, msg, enc)
		if err != nil {
			// Unencodable message: a programmer error surfaced as a counted
			// drop rather than a poisoned connection.
			lost++
			continue
		}
		frames++
		if len(buf) >= maxBatchBytes {
			if !flush() {
				p.encBuf = buf[:0]
				return lost + int64(len(p.batch)-i-1)
			}
		}
	}
	if !flush() {
		p.encBuf = buf[:0]
		return lost
	}
	p.encBuf = buf
	return lost
}

// breakConn tears down the connection after a write error.
func (p *peer) breakConn(c net.Conn) {
	c.Close()
	p.mu.Lock()
	if p.conn == c {
		p.conn = nil
	}
	p.mu.Unlock()
}

func (m *Mesh) acceptLoop() {
	defer m.wg.Done()
	for {
		conn, err := m.ln.Accept()
		if err != nil {
			select {
			case <-m.done:
				return
			default:
			}
			continue // transient accept failure: keep serving
		}
		m.wg.Add(1)
		go m.serveConn(conn)
	}
}

func (m *Mesh) serveConn(conn net.Conn) {
	defer m.wg.Done()
	defer conn.Close()
	// Register so Close can unblock the read below; bail if shutdown
	// already started.
	m.mu.Lock()
	select {
	case <-m.done:
		m.mu.Unlock()
		return
	default:
	}
	m.inbound[conn] = -1
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		from := m.inbound[conn]
		delete(m.inbound, conn)
		m.mu.Unlock()
		if from >= 0 {
			m.peers[from].readers.Done()
		}
	}()
	// The hello and the frames share one buffered reader: a read that took
	// both must not lose the frames.
	fr := NewFrameReader(conn, MaxFrame)
	hello, err := fr.Take(helloLen)
	if err != nil {
		return
	}
	p, inc := m.peer(int(hello[0])), binary.BigEndian.Uint64(hello[1:])
	if p == nil {
		return
	}
	var reply [replyLen]byte
	binary.BigEndian.PutUint64(reply[:], m.inc)
	if _, err := conn.Write(reply[:]); err != nil || !p.learn(inc, conn) {
		return
	}
	for {
		// The codec copies every byte it keeps (values, keys) out of the
		// frame during Decode, so the reader's buffer is free to be
		// overwritten by the next frame.
		body, err := fr.Next()
		if err == nil && p.inc.Load() != inc {
			// What a dead incarnation left in flight must not reach a link
			// that has been reset.
			m.framesFenced.Add(1)
			continue
		}
		var msg proto.Message
		if err == nil {
			msg, err = m.codec.Decode(body)
		}
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !isConnReset(err) {
				m.decodeErrs.Add(1)
			}
			return // broken peer: its dialer reconnects if it is alive
		}
		select {
		case <-m.done:
			return
		default:
		}
		m.framesRecv.Add(1)
		m.deliver(p.id, msg)
	}
}

// isConnReset reports transport-level termination errors that are part of
// normal peer churn (as opposed to framing/decode corruption).
func isConnReset(err error) bool {
	var ne *net.OpError
	return errors.As(err, &ne) || errors.Is(err, io.ErrUnexpectedEOF)
}
