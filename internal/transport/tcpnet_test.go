package transport_test

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"twobitreg/internal/cluster"
	"twobitreg/internal/core"
	"twobitreg/internal/proto"
	"twobitreg/internal/regmap"
	"twobitreg/internal/transport"
	"twobitreg/internal/wire"
)

// tcpRig wires n processes on the cluster.KeyedNode event loop over
// loopback TCP meshes — the full production stack (state machine + event
// loop + 2-bit wire format + TCP) inside one test process. A single
// register sits behind a cluster.Sequential adapter and is addressed by
// the empty key.
type tcpRig struct {
	nodes  []*cluster.KeyedNode
	meshes []*transport.Mesh
	// recv[i][from] counts the frames mesh i has delivered from each peer.
	recv [][]atomic.Int64
}

func startTCPRig(t *testing.T, n int) *tcpRig {
	return startTCPRigAlg(t, n, core.Algorithm())
}

// startTCPRigAlg runs alg's processes as single registers. Every process
// may write: the multi-writer algorithms are driven through all of them,
// and the SWMR tests only ever write through process 0.
func startTCPRigAlg(t *testing.T, n int, alg proto.Algorithm) *tcpRig {
	t.Helper()
	writers := make([]int, n)
	for i := range writers {
		writers[i] = i
	}
	return startTCPRigProc(t, n, func(i int) cluster.KeyedProcess {
		return cluster.Sequential(alg.New(i, n, 0), writers...)
	})
}

// startTCPRigProc runs the process newProc builds for each pid.
func startTCPRigProc(t *testing.T, n int, newProc func(i int) cluster.KeyedProcess) *tcpRig {
	t.Helper()
	rig := &tcpRig{
		nodes:  make([]*cluster.KeyedNode, n),
		meshes: make([]*transport.Mesh, n),
		recv:   make([][]atomic.Int64, n),
	}
	// Phase 1: bind every listener on an ephemeral port. The deliver
	// closure indirects through rig.nodes, which is filled in phase 2
	// before any traffic can arrive (nodes send only when driven).
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		i := i
		rig.recv[i] = make([]atomic.Int64, n)
		m, err := transport.NewMesh(i, n, "127.0.0.1:0", wire.Codec{}, func(from int, msg proto.Message) {
			rig.recv[i][from].Add(1)
			rig.nodes[i].Deliver(from, msg)
		})
		if err != nil {
			t.Fatal(err)
		}
		rig.meshes[i] = m
		addrs[i] = m.Addr()
	}
	for _, m := range rig.meshes {
		if err := m.SetPeers(addrs); err != nil {
			t.Fatal(err)
		}
	}
	// Phase 2: the nodes, sending through their mesh.
	for i := 0; i < n; i++ {
		i := i
		rig.nodes[i] = cluster.NewKeyedNode(i, newProc(i), func(to int, msg proto.Message) {
			if err := rig.meshes[i].Send(to, msg); err != nil {
				t.Errorf("node %d send to %d: %v", i, to, err)
			}
		})
	}
	t.Cleanup(func() {
		for _, nd := range rig.nodes {
			nd.Stop()
		}
		for _, m := range rig.meshes {
			m.Close()
		}
	})
	return rig
}

func TestTCPWriteReadAcrossMesh(t *testing.T) {
	t.Parallel()
	rig := startTCPRig(t, 3)
	if err := rig.nodes[0].Put("", []byte("over tcp")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := rig.nodes[i].Get("")
		if err != nil {
			t.Fatalf("node %d read: %v", i, err)
		}
		if string(got) != "over tcp" {
			t.Fatalf("node %d read %q, want 'over tcp'", i, got)
		}
	}
}

func TestTCPSequenceOfWrites(t *testing.T) {
	t.Parallel()
	rig := startTCPRig(t, 3)
	for k := 1; k <= 10; k++ {
		if err := rig.nodes[0].Put("", []byte(fmt.Sprintf("v%d", k))); err != nil {
			t.Fatalf("write %d: %v", k, err)
		}
	}
	got, err := rig.nodes[2].Get("")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v10" {
		t.Fatalf("read %q, want v10", got)
	}
}

func TestTCPConcurrentReaders(t *testing.T) {
	t.Parallel()
	rig := startTCPRig(t, 5)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 1; k <= 10; k++ {
			if err := rig.nodes[0].Put("", []byte(fmt.Sprintf("v%d", k))); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
	}()
	for r := 1; r < 5; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 5; k++ {
				if _, err := rig.nodes[r].Get(""); err != nil {
					t.Errorf("node %d read: %v", r, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestTCPMWMRBatchedLaneFrames runs the batched multi-writer register over
// real loopback TCP: every node writes in turn (each write padding its lane
// over the previous writers', so LaneCompact frames cross the wire codec),
// and every node must read the latest value back. TCP's per-connection
// ordering is exactly the FIFO-link assumption the register declares.
func TestTCPMWMRBatchedLaneFrames(t *testing.T) {
	t.Parallel()
	n := 3
	rig := startTCPRigAlg(t, n, core.MWMRAlgorithm())
	for round := 0; round < 3; round++ {
		for w := 0; w < n; w++ {
			val := fmt.Sprintf("r%d-w%d", round, w)
			if err := rig.nodes[w].Put("", []byte(val)); err != nil {
				t.Fatalf("node %d write: %v", w, err)
			}
			for r := 0; r < n; r++ {
				got, err := rig.nodes[r].Get("")
				if err != nil {
					t.Fatalf("node %d read: %v", r, err)
				}
				if string(got) != val {
					t.Fatalf("node %d read %q after %q was written", r, got, val)
				}
			}
		}
	}
}

func TestMeshRejectsBadConfig(t *testing.T) {
	t.Parallel()
	if _, err := transport.NewMesh(5, 3, "127.0.0.1:0", wire.Codec{}, nil); err == nil {
		t.Fatal("accepted self out of range")
	}
	m, err := transport.NewMesh(0, 3, "127.0.0.1:0", wire.Codec{}, func(int, proto.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.SetPeers([]string{"a"}); err == nil {
		t.Fatal("accepted short peer table")
	}
	if err := m.Send(1, core.ReadMsg{}); err == nil {
		t.Fatal("Send before SetPeers succeeded")
	}
	if err := m.SetPeers([]string{m.Addr(), m.Addr(), m.Addr()}); err != nil {
		t.Fatal(err)
	}
	if err := m.Send(0, core.ReadMsg{}); err == nil {
		t.Fatal("Send to self succeeded")
	}
}

// TestTCPKeyedStoreCoalescedFrames runs the coalescing keyed store over
// real loopback TCP: every process hosts a regmap node directly on its
// event loop (cross-key coalescer on, as shard.Member runs it), so KeyedMsg
// — and, under concurrent load whose mailbox bursts trigger the
// idle-flush, MultiMsg — frames cross the wire codec. One key keeps reads
// assertable: after each write settles, every node must read it back.
func TestTCPKeyedStoreCoalescedFrames(t *testing.T) {
	t.Parallel()
	n := 3
	rig := startTCPRigProc(t, n, func(i int) cluster.KeyedProcess {
		st, err := regmap.NewNode(i, regmap.Config{N: n, Coalesce: true})
		if err != nil {
			t.Fatal(err)
		}
		return st
	})
	for round := 0; round < 3; round++ {
		for w := 0; w < n; w++ {
			val := fmt.Sprintf("r%d-w%d", round, w)
			if err := rig.nodes[w].Put("", []byte(val)); err != nil {
				t.Fatalf("node %d write: %v", w, err)
			}
			for r := 0; r < n; r++ {
				got, err := rig.nodes[r].Get("")
				if err != nil {
					t.Fatalf("node %d read: %v", r, err)
				}
				if string(got) != val {
					t.Fatalf("node %d read %q after %q was written", r, got, val)
				}
			}
		}
	}
	// Concurrent clients per node force mailbox bursts through the
	// idle-flush path (coalesced frames over TCP).
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 10; k++ {
				if err := rig.nodes[w].Put("", []byte(fmt.Sprintf("c%d-%d", w, k))); err != nil {
					t.Errorf("node %d write: %v", w, err)
					return
				}
				if _, err := rig.nodes[w].Get(""); err != nil {
					t.Errorf("node %d read: %v", w, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestMeshPeerRestartedPurgesAndReconnects exercises the subscriber's half
// of the restart rule on a live link: PeerRestarted must close the
// connection the link handshook on, so the sender redials — a second
// handshake, counted on both sides (Redials here, Reconnects at the peer)
// — and the link must carry traffic again.
func TestMeshPeerRestartedPurgesAndReconnects(t *testing.T) {
	t.Parallel()
	rig := startTCPRig(t, 3)
	// The premise is that the 0→1 link has handshaken once. A Put at p0
	// completes on any 2 of 3 and need not have used it, so wait for what
	// is needed: mesh 1 has received from 0.
	if err := rig.nodes[0].Put("", []byte("w1")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "mesh 1 to receive from 0", func() bool { return rig.recv[1][0].Load() > 0 })
	base := rig.meshes[1].Stats().Reconnects
	rig.meshes[0].PeerRestarted(1)
	// The purge may have voided frames the register never resends, so the
	// 0→1 lanes can be behind for good; quorums form through p2. Keep
	// writing until a frame has gone out on the redialed connection.
	deadline := time.Now().Add(5 * time.Second)
	for rig.meshes[1].Stats().Reconnects == base {
		if err := rig.nodes[0].Put("", []byte("w2")); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("mesh 1 never counted the reconnect (mesh 0: %v; mesh 1: %v)",
				rig.meshes[0].Stats(), rig.meshes[1].Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := rig.meshes[0].Stats().Redials; got == 0 {
		t.Error("mesh 1 counted a reconnect that mesh 0 never counted as a redial")
	}
	got, err := rig.nodes[1].Get("")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "w2" {
		t.Fatalf("read %q after reconnect, want w2", got)
	}
}

// TestMeshPeerRestartedDropsQueue pins the purge itself: frames queued for
// an unreachable peer are discarded by PeerRestarted and surface in
// FramesDropped without blocking.
func TestMeshPeerRestartedDropsQueue(t *testing.T) {
	t.Parallel()
	deliver := func(from int, msg proto.Message) {}
	m, err := transport.NewMesh(0, 2, "127.0.0.1:0", wire.Codec{}, deliver,
		transport.WithDialRetry(1, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// Peer 1's address is a bound-but-never-accepting listener, so dials
	// stall and frames pile up in the queue.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := m.SetPeers([]string{m.Addr(), ln.Addr().String()}); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 20; k++ {
		if err := m.Send(1, core.WriteMsg{Bit: uint8(k % 2), Val: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	m.PeerRestarted(1)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if m.Stats().FramesDropped > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("purged frames never counted as dropped (stats: %v)", m.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
