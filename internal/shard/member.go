package shard

// member.go is the one assembly of the served stack: a shard member is a
// transport.Mesh toward its quorum group, a regmap.Node on the runtime's
// event loop (cluster.KeyedNode), and a client-protocol Server, wired the
// same way wherever it runs — cmd/regnode is one Member, LocalCluster a
// grid of them.

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"twobitreg/internal/cluster"
	"twobitreg/internal/proto"
	"twobitreg/internal/regmap"
	"twobitreg/internal/storage"
	"twobitreg/internal/transport"
	"twobitreg/internal/wire"
)

// MemberSpec describes one shard member: its slot in the topology, where
// it listens, and what it is built from.
type MemberSpec struct {
	// Shard of Shards is the member's shard; ID of N its index within the
	// shard's quorum group. Every member of a shard may write every key
	// the shard owns.
	Shard, Shards int
	ID, N         int
	// MeshAddr and ClientAddr are the quorum-link and client-protocol
	// listen addresses; port 0 binds an ephemeral one.
	MeshAddr, ClientAddr string
	// Storage, if non-nil, is the member's stable storage: its log is
	// replayed into the store at construction, every later step is logged
	// to it, and each mailbox burst is synced once before anything leaves.
	// A member started on the storage and addresses of one that died is
	// that member, restarted.
	Storage storage.StableStorage
}

// MemberSpec returns the spec of shard s's process i and the shard's mesh
// address table (what the member's peers are started with). Storage and
// transport options are the caller's to add.
func (c *ClusterConfig) MemberSpec(s, i int) (MemberSpec, []string, error) {
	if s < 0 || s >= len(c.Shards) {
		return MemberSpec{}, nil, &ConfigError{Field: "shard", Reason: fmt.Sprintf(
			"need 0..%d (%d shards), got %d", len(c.Shards)-1, len(c.Shards), s)}
	}
	procs := c.Shards[s].Procs
	if i < 0 || i >= len(procs) {
		return MemberSpec{}, nil, &ConfigError{Field: "id", Reason: fmt.Sprintf(
			"need 0..%d (shard %d has %d processes), got %d", len(procs)-1, s, len(procs), i)}
	}
	peers := make([]string, len(procs))
	for j, p := range procs {
		peers[j] = p.Mesh
	}
	return MemberSpec{
		Shard: s, Shards: len(c.Shards), ID: i, N: len(procs),
		MeshAddr: procs[i].Mesh, ClientAddr: procs[i].Client,
	}, peers, nil
}

// Member is one running shard member. Construction is two-phase so a grid
// can bind ephemeral ports first and exchange the resulting addresses
// afterwards: bind builds the store (recovering it from Storage) and opens
// both listeners; start wires the peers, starts the event loop and serves
// clients. Frames that peers deliver in between are held, not dropped.
//
// Restart needs no call on anybody: the mesh's handshake tells each side
// when the other is a new incarnation, and every member, with Storage or
// without, answers with the restart protocol's link reset
// (peerRestarted). The restarted member resets its own links as it starts.
type Member struct {
	spec      MemberSpec
	store     *regmap.Node
	recovered bool // the log had something in it: peers may hold link state from a previous incarnation
	mesh      *transport.Mesh
	ln        net.Listener // the client port, served from start on
	srv       *Server

	// node is nil before start and after Close: a nil slot is a process
	// that is not there — its handler answers unavailable.
	node     atomic.Pointer[cluster.KeyedNode]
	sendErrs atomic.Int64

	mu     sync.Mutex
	held   []heldFrame // inbound frames that arrived before start
	closed bool
}

type heldFrame struct {
	from int
	msg  proto.Message
}

// StartMember runs one member at fixed addresses: peers is its shard's
// mesh address table (index = process id). Callers must Close the member.
func StartMember(spec MemberSpec, peers []string) (*Member, error) {
	m, err := bind(spec)
	if err != nil {
		return nil, err
	}
	if err := m.start(peers); err != nil {
		m.Close()
		return nil, err
	}
	return m, nil
}

// StartMembers runs a grid of members, specs[s][i] being shard s's process
// i: every member binds first (so port-0 addresses resolve), then each
// starts against its shard's bound mesh addresses. On error nothing is
// left running.
func StartMembers(specs [][]MemberSpec) (grid [][]*Member, err error) {
	defer func() {
		if err != nil {
			for _, row := range grid {
				for _, m := range row {
					m.Close()
				}
			}
			grid = nil
		}
	}()
	grid = make([][]*Member, len(specs))
	for s, row := range specs {
		for _, spec := range row {
			m, err := bind(spec)
			if err != nil {
				return grid, err
			}
			grid[s] = append(grid[s], m)
		}
	}
	for _, row := range grid {
		peers := make([]string, len(row))
		for i, m := range row {
			peers[i] = m.MeshAddr()
		}
		for _, m := range row {
			if err := m.start(peers); err != nil {
				return grid, err
			}
		}
	}
	return grid, nil
}

// bind builds the member's store — recovery is part of building it — and
// opens its two listeners.
func bind(spec MemberSpec) (*Member, error) {
	if spec.ID < 0 || spec.ID >= spec.N {
		return nil, &ConfigError{Field: "id", Reason: fmt.Sprintf("need 0..%d, got %d", spec.N-1, spec.ID)}
	}
	store, err := regmap.NewNode(spec.ID, regmap.Config{N: spec.N, Coalesce: true})
	if err != nil {
		return nil, err
	}
	if spec.Storage != nil {
		if err := store.Recover(spec.Storage); err != nil {
			return nil, fmt.Errorf("shard %d member %d: recover: %w", spec.Shard, spec.ID, err)
		}
	}
	m := &Member{spec: spec, store: store, recovered: len(store.Keys()) > 0}
	m.mesh, err = transport.NewMesh(spec.ID, spec.N, spec.MeshAddr, wire.Codec{}, m.deliver)
	if err != nil {
		return nil, fmt.Errorf("shard %d member %d: %w", spec.Shard, spec.ID, err)
	}
	m.mesh.OnPeerRestart(m.peerRestarted)
	if m.ln, err = net.Listen("tcp", spec.ClientAddr); err != nil {
		m.mesh.Close()
		return nil, fmt.Errorf("shard %d member %d: client listener: %w", spec.Shard, spec.ID, err)
	}
	return m, nil
}

// start wires the peers, starts the event loop — a recovered store's link
// resets queued ahead of every held frame — and opens the client port.
func (m *Member) start(peers []string) error {
	if err := m.mesh.SetPeers(peers); err != nil {
		return err
	}
	m.mu.Lock()
	node := cluster.NewKeyedNode(m.spec.ID, m.store, func(to int, msg proto.Message) {
		// Send reports misuse or a closed mesh, never peer health.
		if m.mesh.Send(to, msg) != nil {
			m.sendErrs.Add(1)
		}
	})
	// The order matters because lanes never resend: a frame consumed
	// against link state the reset is about to discard is lost for good
	// and wedges quorum counts.
	for peer := 0; m.recovered && peer < m.spec.N; peer++ {
		if peer != m.spec.ID {
			node.PeerRestarted(peer)
		}
	}
	for _, f := range m.held {
		node.Deliver(f.from, f.msg)
	}
	m.held = nil
	m.node.Store(node)
	m.mu.Unlock()

	srv, err := Serve(m.ln, m.spec.Shard, m.spec.Shards, m.handle)
	if err != nil {
		return err
	}
	m.srv = srv
	return nil
}

// deliver is the mesh's inbound callback.
func (m *Member) deliver(from int, msg proto.Message) {
	if nd := m.node.Load(); nd != nil {
		nd.Deliver(from, msg)
		return
	}
	// Not started yet, or closed. A connection's frames arrive on one
	// goroutine, so a held frame is queued on the node (under mu, in
	// start) before its successor can take the fast path above.
	m.mu.Lock()
	defer m.mu.Unlock()
	if nd := m.node.Load(); nd != nil {
		nd.Deliver(from, msg)
	} else if !m.closed {
		m.held = append(m.held, heldFrame{from, msg})
	}
}

// handle is the client port's Handler: one KeyedNode.Get/Put through the
// event loop (and from there the shard's quorum). A node closed before or
// under the request fails it unavailable (statusOf).
func (m *Member) handle(op wire.ClientOp, key string, val []byte) ([]byte, error) {
	nd := m.node.Load()
	if nd == nil {
		return nil, ErrUnavailable
	}
	if op == wire.ClientGet {
		return nd.Get(key)
	}
	return nil, nd.Put(key, val)
}

// peerRestarted is the mesh's restart callback: peer has come back as a new
// incarnation, and nothing of it is delivered, nor anything written to it,
// until this returns. The answer is one event-loop step — tell the mesh,
// which lets frames toward the peer through again, then reset the link —
// so the re-shipped backlog is the first thing the new incarnation reads.
func (m *Member) peerRestarted(peer int) {
	reset := func() { m.mesh.PeerRestarted(peer) }
	m.mu.Lock()
	defer m.mu.Unlock()
	if nd := m.node.Load(); nd != nil {
		nd.PeerRestartedFunc(peer, reset)
		return
	}
	// Not started yet (or closed): nothing has been sent on the link, so
	// there is only the dead incarnation's held frames to forget.
	kept := m.held[:0]
	for _, f := range m.held {
		if f.from != peer {
			kept = append(kept, f)
		}
	}
	m.held = kept
	reset()
}

// MeshAddr returns the bound quorum-link address.
func (m *Member) MeshAddr() string { return m.mesh.Addr() }

// ClientAddr returns the bound client-protocol address.
func (m *Member) ClientAddr() string { return m.ln.Addr().String() }

// Node returns the member's event loop, nil once closed.
func (m *Member) Node() *cluster.KeyedNode { return m.node.Load() }

// Server returns the member's client-protocol server.
func (m *Member) Server() *Server { return m.srv }

// Mesh returns the member's quorum-link transport; a closed mesh keeps its
// counters.
func (m *Member) Mesh() *transport.Mesh { return m.mesh }

// SendErrors counts outbound frames the mesh refused (misuse or a closed
// mesh, never peer health).
func (m *Member) SendErrors() int64 { return m.sendErrs.Load() }

// Close crashes the member: the node stops, then the client server and the
// mesh close, listeners and connections included. Peers keep retrying its
// mesh address; clients dialing its client port get connection refused and
// fail over. Idempotent.
func (m *Member) Close() {
	m.mu.Lock()
	m.closed = true
	m.held = nil
	nd := m.node.Swap(nil)
	m.mu.Unlock()
	// Node first: stopping it fails any in-flight operations, so the
	// server's drain below cannot wait on a quorum round that will never
	// finish (the rest of the shard may be dying too).
	if nd != nil {
		nd.Stop()
	}
	if m.srv != nil {
		m.srv.Close()
	} else {
		m.ln.Close() // bound but never served
	}
	m.mesh.Close()
}
