package transport_test

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"twobitreg/internal/core"
	"twobitreg/internal/proto"
	"twobitreg/internal/transport"
	"twobitreg/internal/wire"
)

// meshPair builds two connected raw meshes (no cluster nodes on top), with
// b's deliveries funneled through deliver. Returned meshes are cleaned up
// by the test.
func meshPair(t *testing.T, deliver func(from int, msg proto.Message), opts ...transport.MeshOption) (a, b *transport.Mesh) {
	t.Helper()
	a, err := transport.NewMesh(0, 2, "127.0.0.1:0", wire.Codec{}, func(int, proto.Message) {}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err = transport.NewMesh(1, 2, "127.0.0.1:0", wire.Codec{}, deliver, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	addrs := []string{a.Addr(), b.Addr()}
	if err := a.SetPeers(addrs); err != nil {
		t.Fatal(err)
	}
	if err := b.SetPeers(addrs); err != nil {
		t.Fatal(err)
	}
	return a, b
}

// seqMsg wraps an increasing sequence number in a WriteMsg payload so the
// receive side can assert ordering and at-most-once delivery across
// reconnects.
func seqMsg(i uint64) proto.Message {
	var v [8]byte
	binary.BigEndian.PutUint64(v[:], i)
	return core.WriteMsg{Bit: uint8(i % 2), Val: v[:]}
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestTCPConnDropMidBurst kills the outbound connection repeatedly in the
// middle of a send burst and asserts the pipelined sender's reconnect
// semantics: the link redials (Stats().Redials), the receiver sees no
// decode errors (frames never interleave or tear across the reconnect),
// no frame is ever delivered twice (at-most-once: a reconnect must not
// resend buffered frames), and traffic flows again after the last drop.
// Strict cross-drop ordering is NOT asserted — a reconnect may race the
// old connection's drain — but garbled frames would surface as decode
// errors or alien sequence numbers.
func TestTCPConnDropMidBurst(t *testing.T) {
	t.Parallel()
	var (
		mu    sync.Mutex
		seen  = make(map[uint64]bool)
		dups  int
		alien atomic.Int64
	)
	var last uint64
	var lastSet bool
	a, _ := meshPair(t, func(from int, msg proto.Message) {
		w, ok := msg.(core.WriteMsg)
		if !ok || len(w.Val) != 8 {
			alien.Add(1)
			return
		}
		s := binary.BigEndian.Uint64(w.Val)
		mu.Lock()
		if seen[s] {
			dups++
		}
		seen[s] = true
		if !lastSet || s > last {
			last, lastSet = s, true
		}
		mu.Unlock()
	}, transport.WithDialRetry(40, 5*time.Millisecond))

	// Prime the link: Send is fully asynchronous, so wait for the first
	// delivery before the burst — otherwise the whole burst can enqueue
	// before the initial dial completes and DropConn finds nothing to kill.
	if err := a.Send(1, seqMsg(0)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "link up", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(seen) > 0
	})

	const total = 5000
	drops := 0
	for i := uint64(1); i < total; i++ {
		if err := a.Send(1, seqMsg(i)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if i%500 == 250 && a.DropConn(1) {
			drops++
		}
	}
	if drops == 0 {
		t.Fatal("DropConn never found a live connection to kill")
	}

	// A trailing marker must still get through: the sender redialed.
	trailer := uint64(total)
	waitFor(t, "post-drop delivery", func() bool {
		trailer++
		if err := a.Send(1, seqMsg(trailer)); err != nil {
			t.Fatalf("trailing send: %v", err)
		}
		mu.Lock()
		defer mu.Unlock()
		return lastSet && last >= total
	})

	st := a.Stats()
	if st.Redials == 0 {
		t.Errorf("no redials recorded after %d forced drops", drops)
	}
	if alien.Load() != 0 {
		t.Errorf("%d deliveries with unexpected shape", alien.Load())
	}
	if st.DecodeErrors != 0 {
		t.Errorf("%d decode errors on the sender side", st.DecodeErrors)
	}
	mu.Lock()
	delivered, duplicates := len(seen), dups
	mu.Unlock()
	if duplicates != 0 {
		t.Errorf("%d duplicate deliveries across reconnects", duplicates)
	}
	if delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if st.FramesSent+st.FramesDropped < total {
		t.Errorf("sent %d + dropped %d frames, expected at least %d accounted for",
			st.FramesSent, st.FramesDropped, total)
	}
}

// TestTCPConnDropUnderClusterLoad drops connections while cluster nodes
// run a write burst over the mesh: operations must keep completing — the
// protocol's quorum retries ride out the at-most-once frame loss — and no
// receiver may see a decode error (no frame interleaving).
func TestTCPConnDropUnderClusterLoad(t *testing.T) {
	t.Parallel()
	rig := startTCPRig(t, 3)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 1; k <= 30; k++ {
			if err := rig.nodes[0].Put("", []byte(fmt.Sprintf("v%d", k))); err != nil {
				t.Errorf("write %d: %v", k, err)
				return
			}
			if _, err := rig.nodes[1].Get(""); err != nil {
				t.Errorf("read %d: %v", k, err)
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		time.Sleep(time.Millisecond)
		rig.meshes[0].DropConn(1)
		rig.meshes[1].DropConn(0)
	}
	<-done
	for i, m := range rig.meshes {
		if st := m.Stats(); st.DecodeErrors != 0 {
			t.Errorf("mesh %d: %d decode errors (frame interleaving)", i, st.DecodeErrors)
		}
	}
	got, err := rig.nodes[2].Get("")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v30" {
		t.Fatalf("read %q after the burst, want v30", got)
	}
}

// TestTCPDeadPeerDoesNotBlockLivePeers is the head-of-line-blocking
// regression test: with one unreachable peer, sends to it must return
// immediately (queued or dropped, never dialing inline) and traffic to the
// live peer must flow at full speed while the dead peer's sender is stuck
// in its backoff cycle.
func TestTCPDeadPeerDoesNotBlockLivePeers(t *testing.T) {
	t.Parallel()
	var delivered atomic.Int64
	addrsOf := func(ms []*transport.Mesh) []string {
		out := make([]string, len(ms))
		for i, m := range ms {
			out[i] = m.Addr()
		}
		return out
	}
	// Three meshes; mesh 2 is closed right after binding, so its address is
	// valid but nothing listens: the worst case, a dial that must time out.
	meshes := make([]*transport.Mesh, 3)
	for i := range meshes {
		i := i
		m, err := transport.NewMesh(i, 3, "127.0.0.1:0", wire.Codec{}, func(int, proto.Message) {
			if i == 1 {
				delivered.Add(1)
			}
		}, transport.WithDialRetry(40, 250*time.Millisecond), transport.WithQueueCap(8192))
		if err != nil {
			t.Fatal(err)
		}
		meshes[i] = m
	}
	addrs := addrsOf(meshes)
	meshes[2].Close() // dead before anyone dials
	for i := 0; i < 2; i++ {
		if err := meshes[i].SetPeers(addrs); err != nil {
			t.Fatal(err)
		}
		defer meshes[i].Close()
	}

	// Prime the live link so the burst below measures steady-state sends,
	// not the initial dial racing the (asynchronous) enqueues.
	if err := meshes[0].Send(1, seqMsg(1<<32)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "live link up", func() bool { return delivered.Load() == 1 })

	const burst = 2000
	start := time.Now()
	for i := uint64(0); i < burst; i++ {
		// Interleave sends to the dead and the live peer: under the old
		// global-lock transport every dead-peer send stalled the next live
		// send behind a multi-second dial.
		if err := meshes[0].Send(2, seqMsg(i)); err != nil {
			t.Fatalf("send to dead peer: %v", err)
		}
		if err := meshes[0].Send(1, seqMsg(i)); err != nil {
			t.Fatalf("send to live peer: %v", err)
		}
	}
	elapsed := time.Since(start)
	if elapsed > 2*time.Second {
		t.Fatalf("burst of %d interleaved sends took %s — dead peer is blocking the caller", burst, elapsed)
	}
	waitFor(t, "live-peer deliveries", func() bool { return delivered.Load() == burst+1 })
	st := meshes[0].Stats()
	if st.DecodeErrors != 0 {
		t.Errorf("%d decode errors", st.DecodeErrors)
	}
}

// TestTCPStalledPeerDoesNotBlockSend is the slow-peer regression test: a
// live peer whose reader has stopped must cost Send nothing. Once the socket
// buffers toward it fill, the sender goroutine waits in its write, the queue
// fills behind it, and every further frame is dropped and counted; the
// caller (in the served stack, a KeyedNode's event loop) never waits on the
// socket.
func TestTCPStalledPeerDoesNotBlockSend(t *testing.T) {
	t.Parallel()
	var (
		delivered atomic.Int64
		stalled   atomic.Bool
		release   = make(chan struct{})
	)
	a, _ := meshPair(t, func(int, proto.Message) {
		if stalled.Load() {
			<-release
		}
		delivered.Add(1)
	}, transport.WithQueueCap(8))
	// Deferred calls run before the meshes' cleanups close them, so a Send
	// stuck on the socket fails the test instead of hanging it.
	unblock := sync.OnceFunc(func() { close(release) })
	defer unblock()
	if err := a.Send(1, seqMsg(0)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "link up", func() bool { return delivered.Load() == 1 })
	stalled.Store(true)

	const (
		frameBytes = 256 << 10
		frames     = 400 // 100 MiB, far past what the socket buffers hold
	)
	big := core.WriteMsg{Bit: 1, Val: make([]byte, frameBytes)}
	sent := make(chan error, 1)
	go func() {
		for i := 0; i < frames; i++ {
			if err := a.Send(1, big); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	select {
	case err := <-sent:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		unblock()
		<-sent
		t.Fatalf("%d frames of %d KiB toward a peer that stopped reading did not return in 5s: Send waits on the socket",
			frames, frameBytes>>10)
	}
	if st := a.Stats(); st.FramesDropped == 0 {
		t.Fatalf("a stalled peer's queue overflow was not counted (stats: %v)", st)
	}
}

// TestTCPSendPolicyDropNewest fills a tiny queue toward an unreachable
// peer: Send must stay non-blocking and the overflow must be counted, not
// silently vanish.
func TestTCPSendPolicyDropNewest(t *testing.T) {
	t.Parallel()
	m, err := transport.NewMesh(0, 2, "127.0.0.1:0", wire.Codec{}, func(int, proto.Message) {},
		transport.WithQueueCap(4), transport.WithDialRetry(1000, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// Peer 1's address: a listener bound then closed — unreachable.
	dead, err := transport.NewMesh(1, 2, "127.0.0.1:0", wire.Codec{}, func(int, proto.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr()
	dead.Close()
	if err := m.SetPeers([]string{m.Addr(), deadAddr}); err != nil {
		t.Fatal(err)
	}
	const sends = 200
	start := time.Now()
	for i := uint64(0); i < sends; i++ {
		if err := m.Send(1, seqMsg(i)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("%d sends into a full queue took %s — Send is blocking", sends, elapsed)
	}
	waitFor(t, "drops counted", func() bool { return m.Stats().FramesDropped > 0 })
}

// TestTCPBatchedWritesUnderConcurrency hammers one link from many
// goroutines: frames that queue behind the write in flight must coalesce
// into multi-frame conn.Writes (the writev-style batching), with nothing
// lost.
func TestTCPBatchedWritesUnderConcurrency(t *testing.T) {
	t.Parallel()
	const (
		senders = 8
		perSend = 500
		total   = senders * perSend
	)
	var delivered atomic.Int64
	a, _ := meshPair(t, func(int, proto.Message) { delivered.Add(1) }, transport.WithQueueCap(2*total))
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSend; i++ {
				if err := a.Send(1, seqMsg(uint64(s*perSend+i))); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	waitFor(t, "all frames delivered", func() bool { return delivered.Load() == total })
	st := a.Stats()
	if st.FramesDropped != 0 {
		t.Errorf("%d frames dropped on a live link", st.FramesDropped)
	}
	if st.DecodeErrors != 0 {
		t.Errorf("%d decode errors", st.DecodeErrors)
	}
	if st.MaxBatch < 2 {
		t.Errorf("max batch %d under %d concurrent senders — batching never engaged", st.MaxBatch, senders)
	}
	if st.ConnWrites >= st.FramesSent {
		t.Errorf("%d writes for %d frames — no syscall saved", st.ConnWrites, st.FramesSent)
	}
	t.Logf("batched: %s", st)
}
