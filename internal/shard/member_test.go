package shard

import (
	"net"
	"sync"
	"testing"
	"time"

	"twobitreg/internal/storage"
	"twobitreg/internal/wire"
)

// trio starts one shard of three members on ephemeral ports, each logging
// to its own MemLog. wrap, if non-nil, decorates member 0's client handler.
func trio(t *testing.T, wrap func(Handler) Handler) ([]*Member, []*storage.MemLog, []MemberSpec) {
	t.Helper()
	logs := make([]*storage.MemLog, 3)
	specs := make([]MemberSpec, 3)
	for i := range specs {
		logs[i] = storage.NewMemLog()
		specs[i] = MemberSpec{
			Shards: 1, ID: i, N: 3, MeshAddr: "127.0.0.1:0", ClientAddr: "127.0.0.1:0",
			Coalesce: true, Storage: logs[i],
		}
	}
	specs[0].WrapHandler = wrap
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
// on, and revives it from its log at the same addresses. The peers reset
// their links first, so their re-shipped backlogs reach the victim's new
// listener between bind and start. Lanes never resend: were those frames
// dropped, or consumed before the revived node reset its own links, the
// revived member could never catch up and its read would hang.
func TestMemberReviveHoldsEarlyFrames(t *testing.T) {
	members, logs, specs := trio(t, nil)
	if err := members[0].Node().Put("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	meshAddrs := []string{members[0].MeshAddr(), members[1].MeshAddr(), members[2].MeshAddr()}
	clientAddr := members[2].ClientAddr()

	members[2].Close()
	logs[2].DropUnsynced() // the crash: the unsynced tail vanishes
	if members[2].Node() != nil {
		t.Fatal("a closed member still exposes its node")
	}
	if err := members[1].Node().Put("k", []byte("v2")); err != nil {
		t.Fatalf("write with one member down: %v", err)
	}

	var resets sync.WaitGroup
	for _, peer := range members[:2] {
		resets.Add(1)
		if !peer.PeerRestarted(2, resets.Done) {
			t.Fatal("a live peer refused the link reset")
		}
	}
	within(t, 5*time.Second, "the peers' link resets", resets.Wait)

	spec := specs[2]
	spec.MeshAddr, spec.ClientAddr = meshAddrs[2], clientAddr
	revived, err := bind(spec)
	if err != nil {
		t.Fatalf("rebind at the original addresses: %v", err)
	}
	defer revived.Close()
	for _, peer := range members[:2] {
		peer.Mesh().KickDial(2)
	}
	heldFrames := func() int {
		revived.mu.Lock()
		defer revived.mu.Unlock()
		return len(revived.held)
	}
	for deadline := time.Now().Add(5 * time.Second); heldFrames() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no backlog frame reached the bound, unstarted member")
		}
		time.Sleep(time.Millisecond)
	}
	if err := revived.start(meshAddrs, 0, 1); err != nil {
		t.Fatal(err)
	}
	if heldFrames() != 0 {
		t.Fatal("start left frames held")
	}

	within(t, 10*time.Second, "the revived member's read", func() {
		got, err := revived.Node().Get("k")
		if err != nil || string(got) != "v2" {
			t.Errorf("revived member read %q, %v; want v2", got, err)
		}
	})
	if err := revived.Node().Put("k", []byte("v3")); err != nil {
		t.Fatalf("write through the revived member: %v", err)
	}
	if got, err := members[0].Node().Get("k"); err != nil || string(got) != "v3" {
		t.Fatalf("peer read %q, %v after the revived member's write; want v3", got, err)
	}
}

// TestMemberCloseOrder pins node → server → mesh. A request parked on a
// quorum that will never form must not stall Close: the node stops first
// and fails it, so the server's drain finds nothing in flight (server
// first would wait forever), and the mesh is still open for whatever the
// node sends on its way down.
func TestMemberCloseOrder(t *testing.T) {
	entered := make(chan struct{})
	members, _, _ := trio(t, func(h Handler) Handler {
		return func(op wire.ClientOp, key string, val []byte) ([]byte, error) {
			close(entered) // the test sends exactly one request
			return h(op, key, val)
		}
	})
	members[1].Close()
	members[2].Close()

	conn, err := net.Dial("tcp", members[0].ClientAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sendReq(t, conn, wire.ClientRequest{ID: 7, Op: wire.ClientPut, Key: "k", Val: []byte("parked")})
	within(t, 5*time.Second, "the request reaching the handler", func() { <-entered })

	within(t, 5*time.Second, "Close with a request parked on a lost quorum", members[0].Close)
	if got := members[0].Server().ActiveSessions(); got != 0 {
		t.Errorf("%d sessions survive Close", got)
	}
	if got := members[0].SendErrors(); got != 0 {
		t.Errorf("%d sends found the mesh closed: it must outlive the node", got)
	}
	if body, err := readFrame(conn); err == nil {
		// The response may be cut off by the session closing; if it made
		// it out, it must tell the client to fail over.
		if resp, err := wire.DecodeClientResponse(body); err != nil || resp.Status != wire.StatusUnavailable {
			t.Errorf("parked request answered %+v, %v; want StatusUnavailable", resp, err)
		}
	}
	members[0].Close() // idempotent
}
