package cluster_test

import (
	"sync"
	"testing"

	"twobitreg/internal/cluster"
	"twobitreg/internal/core"
	"twobitreg/internal/proto"
	"twobitreg/internal/storage"
)

// restartMesh wires storage-attached single-register nodes through a swappable routing
// table: killing a node nils its slot (sends toward it drop, like loss
// toward a crashed peer), and reviving swaps the recovered node in.
// During a revival, frames toward the victim are held rather than
// dropped — the in-memory analogue of the TCP transport's bounded queue
// toward a down listener — so the peers' re-shipped backlogs survive
// the window before the fresh node is installed.
type restartMesh struct {
	mu      sync.Mutex
	nodes   []*cluster.KeyedNode
	logs    []*storage.MemLog
	holding []bool
	held    [][]heldMsg
	n       int
}

// heldMsg is one frame parked for a reviving node.
type heldMsg struct {
	from int
	msg  proto.Message
}

func newRestartMesh(t *testing.T, n int) *restartMesh {
	t.Helper()
	m := &restartMesh{
		nodes:   make([]*cluster.KeyedNode, n),
		logs:    make([]*storage.MemLog, n),
		holding: make([]bool, n),
		held:    make([][]heldMsg, n),
		n:       n,
	}
	for i := 0; i < n; i++ {
		m.logs[i] = storage.NewMemLog()
		p := core.Algorithm().New(i, n, 0)
		p.(storage.Recoverable).AttachStorage(m.logs[i])
		m.nodes[i] = cluster.NewKeyedNode(i, cluster.Sequential(p, 0), m.sender(i))
	}
	t.Cleanup(func() {
		// Snapshot, then Stop outside the lock: Stop joins the node's
		// event loop, which may itself be blocked in sender() on m.mu
		// relaying leftover protocol chatter.
		m.mu.Lock()
		nodes := append([]*cluster.KeyedNode(nil), m.nodes...)
		m.mu.Unlock()
		for _, nd := range nodes {
			if nd != nil {
				nd.Stop()
			}
		}
	})
	return m
}

func (m *restartMesh) sender(from int) func(to int, msg proto.Message) {
	return func(to int, msg proto.Message) {
		m.mu.Lock()
		if m.holding[to] {
			m.held[to] = append(m.held[to], heldMsg{from, msg})
			m.mu.Unlock()
			return
		}
		nd := m.nodes[to]
		m.mu.Unlock()
		if nd != nil {
			nd.Deliver(from, msg)
		}
	}
}

func (m *restartMesh) node(pid int) *cluster.KeyedNode {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nodes[pid]
}

// kill stops a node and detaches it from the mesh; its unsynced log tail
// is discarded, as a real crash would.
func (m *restartMesh) kill(pid int) {
	m.mu.Lock()
	nd := m.nodes[pid]
	m.nodes[pid] = nil
	m.mu.Unlock()
	nd.Stop()
	m.logs[pid].DropUnsynced()
}

// revive replays the victim's log into a fresh process, restarts its event
// loop, and runs the bilateral PeerRestarted reset with every live peer,
// in the same order as a restart over TCP, where the mesh's incarnation
// handshake resets each peer before it carries a frame of the new
// incarnation: peers reset their end of each link before the fresh node
// exists, so the revived node's re-shipped backlog can never reach a peer
// still holding pre-crash link state; frames the peers emit toward the
// victim meanwhile are held, and flush only after the victim's own link
// resets are enqueued, so its event loop processes the resets first. The
// order matters because lanes never resend: a frame consumed against stale
// link state on either side is lost for good and wedges quorum counts.
func (m *restartMesh) revive(t *testing.T, pid int) {
	t.Helper()
	m.mu.Lock()
	m.holding[pid] = true
	m.mu.Unlock()
	for j := 0; j < m.n; j++ {
		if j == pid {
			continue
		}
		if peer := m.node(j); peer != nil {
			peer.PeerRestarted(pid)
		}
	}
	fresh := core.Algorithm().New(pid, m.n, 0)
	if err := fresh.(storage.Recoverable).Recover(m.logs[pid]); err != nil {
		t.Fatalf("recover p%d: %v", pid, err)
	}
	nd := cluster.NewKeyedNode(pid, cluster.Sequential(fresh, 0), m.sender(pid))
	for j := 0; j < m.n; j++ {
		if j == pid {
			continue
		}
		if m.node(j) != nil {
			nd.PeerRestarted(j)
		}
	}
	m.mu.Lock()
	m.nodes[pid] = nd
	m.holding[pid] = false
	for _, h := range m.held[pid] {
		nd.Deliver(h.from, h.msg)
	}
	m.held[pid] = nil
	m.mu.Unlock()
}

// TestNodeRestartReader kills a reader node mid-run: the revived node must
// recover its durable lane state, rejoin, and serve reads of both the
// pre-crash and post-crash writes.
func TestNodeRestartReader(t *testing.T) {
	t.Parallel()
	m := newRestartMesh(t, 3)
	for _, v := range []string{"w1", "w2", "w3"} {
		if err := m.node(0).Put("", val(v)); err != nil {
			t.Fatal(err)
		}
	}
	m.kill(2)
	if err := m.node(0).Put("", val("w4")); err != nil {
		t.Fatal(err)
	}
	m.revive(t, 2)
	got, err := m.node(2).Get("")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(val("w4")) {
		t.Fatalf("revived reader read %q, want w4", got)
	}
}

// TestNodeRestartWriter kills the writer after acknowledged writes: no
// acknowledged write may be lost across the restart, and the revived
// writer must be able to write again.
func TestNodeRestartWriter(t *testing.T) {
	t.Parallel()
	m := newRestartMesh(t, 3)
	for _, v := range []string{"w1", "w2"} {
		if err := m.node(0).Put("", val(v)); err != nil {
			t.Fatal(err)
		}
	}
	m.kill(0)
	got, err := m.node(1).Get("")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(val("w2")) {
		t.Fatalf("read during writer downtime got %q, want w2", got)
	}
	m.revive(t, 0)
	got, err = m.node(0).Get("")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(val("w2")) {
		t.Fatalf("revived writer read %q, want w2 (acknowledged write lost)", got)
	}
	if err := m.node(0).Put("", val("w3")); err != nil {
		t.Fatal(err)
	}
	for pid := 0; pid < 3; pid++ {
		got, err := m.node(pid).Get("")
		if err != nil {
			t.Fatalf("node %d: %v", pid, err)
		}
		if !got.Equal(val("w3")) {
			t.Fatalf("node %d read %q after revived writer's write, want w3", pid, got)
		}
	}
}
