package shard

import (
	"testing"
	"time"

	"twobitreg/internal/storage"
	"twobitreg/internal/wire"
)

// trio starts one shard of three members on ephemeral ports, each logging
// to its own in-memory FileWAL.
func trio(t *testing.T) ([]*Member, []*storage.FileWAL, []MemberSpec) {
	t.Helper()
	logs := make([]*storage.FileWAL, 3)
	specs := make([]MemberSpec, 3)
	for i := range specs {
		logs[i] = storage.NewMemLog()
		specs[i] = MemberSpec{
			Shards: 1, ID: i, N: 3, MeshAddr: "127.0.0.1:0", ClientAddr: "127.0.0.1:0",
			Storage: logs[i],
		}
	}
	grid, err := StartMembers([][]MemberSpec{specs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, m := range grid[0] {
			m.Close()
		}
	})
	return grid[0], logs, specs
}

func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { f(); close(done) }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not finish within %s", what, d)
	}
}

// TestMemberReviveHoldsEarlyFrames kills a member, lets the survivors move
// on, and starts a member on the same addresses and the same log — and
// that is the whole revival. Nobody tells the peers: the mesh handshake
// shows each side the other's new incarnation, both reset the link and
// re-ship before a frame crosses it, and whatever reaches the new listener
// before its node runs is held, not dropped. Lanes never resend: were a
// frame lost, or consumed against link state a reset then discarded, the
// revived member could never catch up and its read would hang.
func TestMemberReviveHoldsEarlyFrames(t *testing.T) {
	members, logs, specs := trio(t)
	if err := members[0].Node().Put("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	meshAddrs := []string{members[0].MeshAddr(), members[1].MeshAddr(), members[2].MeshAddr()}
	spec := specs[2]
	spec.MeshAddr, spec.ClientAddr = meshAddrs[2], members[2].ClientAddr()

	members[2].Close()
	if err := logs[2].Reopen(); err != nil { // the crash: the unsynced frame vanishes
		t.Fatal(err)
	}
	if members[2].Node() != nil {
		t.Fatal("a closed member still exposes its node")
	}
	if err := members[1].Node().Put("k", []byte("v2")); err != nil {
		t.Fatalf("write with one member down: %v", err)
	}

	revived, err := StartMember(spec, meshAddrs)
	if err != nil {
		t.Fatalf("restart at the original addresses: %v", err)
	}
	defer revived.Close()
	within(t, 10*time.Second, "the revived member's read", func() {
		got, err := revived.Node().Get("k")
		if err != nil || string(got) != "v2" {
			t.Errorf("revived member read %q, %v; want v2", got, err)
		}
	})
	within(t, 10*time.Second, "the revived member's write", func() {
		if err := revived.Node().Put("k", []byte("v3")); err != nil {
			t.Errorf("write through the revived member: %v", err)
		}
	})
	if got, err := members[0].Node().Get("k"); err != nil || string(got) != "v3" {
		t.Fatalf("peer read %q, %v after the revived member's write; want v3", got, err)
	}
	// A survivor that had handshaken with the victim's previous incarnation
	// saw it replaced; one that never had (links stay lazy until someone
	// waits, and a quorum of two need not include the third) made a first
	// contact. Either way the rule runs at most once per restart.
	for i, m := range members[:2] {
		if st := m.Mesh().Stats(); st.PeerRestarts > 1 {
			t.Errorf("survivor %d ran the restart rule %d times for one restart (%v)", i, st.PeerRestarts, st)
		}
	}
}

// TestMemberCloseOrder pins node → server → mesh. A request parked on a
// quorum that will never form must not stall Close: the node stops first
// and fails it, so the server's drain finds nothing in flight (server
// first would wait forever), and the mesh is still open for whatever the
// node sends on its way down.
func TestMemberCloseOrder(t *testing.T) {
	members, _, _ := trio(t)
	// Observe the request entering the handler. Under the server's lock, so
	// the session goroutines — started under it, later — see the wrapper.
	entered := make(chan struct{})
	srv := members[0].Server()
	srv.mu.Lock()
	handle := srv.handle
	srv.handle = func(op wire.ClientOp, key string, val []byte) ([]byte, error) {
		close(entered) // the test sends exactly one request
		return handle(op, key, val)
	}
	srv.mu.Unlock()
	members[1].Close()
	members[2].Close()

	conn := dialRaw(t, members[0].ClientAddr())
	sendReq(t, conn, wire.ClientRequest{ID: 7, Op: wire.ClientPut, Key: "k", Val: []byte("parked")})
	within(t, 5*time.Second, "the request reaching the handler", func() { <-entered })

	within(t, 5*time.Second, "Close with a request parked on a lost quorum", members[0].Close)
	if got := members[0].Server().ActiveSessions(); got != 0 {
		t.Errorf("%d sessions survive Close", got)
	}
	if got := members[0].SendErrors(); got != 0 {
		t.Errorf("%d sends found the mesh closed: it must outlive the node", got)
	}
	if body, err := conn.fr.Next(); err == nil {
		// The response may be cut off by the session closing; if it made
		// it out, it must tell the client to fail over.
		if resp, err := wire.DecodeClientResponse(body); err != nil || resp.Status != wire.StatusUnavailable {
			t.Errorf("parked request answered %+v, %v; want StatusUnavailable", resp, err)
		}
	}
	members[0].Close() // idempotent
}
