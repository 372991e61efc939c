package cluster_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"twobitreg/internal/cluster"
	"twobitreg/internal/core"
	"twobitreg/internal/proto"
)

// newSeqNode is the standalone single-register runtime: the one event loop
// around a Sequential adapter, process 0 the writer. The register is
// addressed by the empty key.
func newSeqNode(id, n int, send func(to int, msg proto.Message)) *cluster.KeyedNode {
	return cluster.NewKeyedNode(id, cluster.Sequential(core.Algorithm().New(id, n, 0), 0), send)
}

// nodeMesh wires standalone nodes directly (no TCP): the transport is a
// function call, which isolates the event-loop behaviour from transport
// concerns.
func nodeMesh(t *testing.T, n int) []*cluster.KeyedNode {
	t.Helper()
	nodes := make([]*cluster.KeyedNode, n)
	for i := 0; i < n; i++ {
		i := i
		nodes[i] = newSeqNode(i, n, func(to int, msg proto.Message) {
			nodes[to].Deliver(i, msg)
		})
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	})
	return nodes
}

func TestNodeWriteRead(t *testing.T) {
	t.Parallel()
	nodes := nodeMesh(t, 3)
	if err := nodes[0].Put("", val("x")); err != nil {
		t.Fatal(err)
	}
	for i, nd := range nodes {
		got, err := nd.Get("")
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		if !got.Equal(val("x")) {
			t.Fatalf("node %d read %q, want x", i, got)
		}
	}
}

func TestNodeConcurrentClients(t *testing.T) {
	t.Parallel()
	nodes := nodeMesh(t, 5)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 1; k <= 15; k++ {
			if err := nodes[0].Put("", val(fmt.Sprintf("v%d", k))); err != nil {
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
			for k := 0; k < 8; k++ {
				if _, err := nodes[r].Get(""); err != nil {
					t.Errorf("node %d read: %v", r, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestNodeStopFailsPendingAndFutureOps(t *testing.T) {
	t.Parallel()
	// A single node of a 3-process instance can never reach quorum alone:
	// its write parks forever until Stop.
	nd := newSeqNode(0, 3, func(int, proto.Message) {})
	done := make(chan error, 1)
	go func() { done <- nd.Put("", val("stuck")) }()
	nd.Stop()
	if err := <-done; !errors.Is(err, cluster.ErrStopped) {
		t.Fatalf("pending write: %v, want ErrStopped", err)
	}
	if err := nd.Put("", val("late")); !errors.Is(err, cluster.ErrStopped) {
		t.Fatalf("post-stop write: %v, want ErrStopped", err)
	}
	if _, err := nd.Get(""); !errors.Is(err, cluster.ErrStopped) {
		t.Fatalf("post-stop read: %v, want ErrStopped", err)
	}
}

func TestNodeDeliverAfterStopIsNoop(t *testing.T) {
	t.Parallel()
	nd := newSeqNode(0, 3, func(int, proto.Message) {})
	nd.Stop()
	nd.Deliver(1, core.ReadMsg{}) // must not panic or block
}
