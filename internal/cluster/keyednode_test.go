package cluster

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"twobitreg/internal/proto"
	"twobitreg/internal/regmap"
	"twobitreg/internal/storage"
)

// keyedTrio wires three KeyedNodes directly to each other in memory — the
// regnode stack minus the TCP mesh, so these tests pin the event loop.
func keyedTrio(t *testing.T, cfg regmap.Config) []*KeyedNode {
	t.Helper()
	cfg.N = 3
	nodes := make([]*KeyedNode, 3)
	for i := 0; i < 3; i++ {
		i := i
		st, err := regmap.NewNode(i, cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = NewKeyedNode(i, st, func(to int, msg proto.Message) {
			// nodes[to] is written before any send can happen: sends only
			// occur on event loops, which only get events after this loop.
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

func TestKeyedNodeMultiKeyConcurrent(t *testing.T) {
	nodes := keyedTrio(t, regmap.Config{DefaultWriters: []int{0, 1, 2}, Coalesce: true})

	const keysN = 8
	var wg sync.WaitGroup
	errs := make(chan error, keysN)
	for k := 0; k < keysN; k++ {
		k := k
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := fmt.Sprintf("key-%d", k)
			writer := nodes[k%3]
			reader := nodes[(k+1)%3]
			for rev := 0; rev < 5; rev++ {
				want := fmt.Sprintf("%s@%d", key, rev)
				if err := writer.Put(key, []byte(want)); err != nil {
					errs <- fmt.Errorf("put %s: %w", want, err)
					return
				}
				got, err := reader.Get(key)
				if err != nil {
					errs <- fmt.Errorf("get %s: %w", key, err)
					return
				}
				// The write completed before the read started, so the read
				// must not return an older revision (atomicity).
				if string(got) != want {
					errs <- fmt.Errorf("key %s: read %q after writing %q", key, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestKeyedNodeWriterSetBoundary(t *testing.T) {
	nodes := keyedTrio(t, regmap.Config{DefaultWriters: []int{0}})

	if err := nodes[0].Put("owned", []byte("v1")); err != nil {
		t.Fatalf("writer's own put: %v", err)
	}
	err := nodes[1].Put("owned", []byte("usurped"))
	if !errors.Is(err, ErrNotWriter) {
		t.Fatalf("foreign write: %v, want ErrNotWriter", err)
	}
	// The rejected write must not have disturbed the register.
	got, err := nodes[2].Get("owned")
	if err != nil || string(got) != "v1" {
		t.Fatalf("read after rejected write: %q, %v", got, err)
	}
}

func TestKeyedNodeStopFailsPending(t *testing.T) {
	// A single node whose sends go nowhere: every quorum round stalls, so
	// operations park until Stop fails them.
	st, err := regmap.NewNode(0, regmap.Config{N: 3, DefaultWriters: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	nd := NewKeyedNode(0, st, func(to int, msg proto.Message) {})

	const n = 3
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		i := i
		go func() {
			_, err := nd.Get(fmt.Sprintf("parked-%d", i))
			done <- err
		}()
	}
	// The gets are enqueued (possibly not yet started); Stop must fail
	// both started and queued operations.
	nd.Stop()
	for i := 0; i < n; i++ {
		if err := <-done; !errors.Is(err, ErrStopped) {
			t.Fatalf("pending op failed with %v, want ErrStopped", err)
		}
	}
	if err := nd.Put("after", []byte("x")); !errors.Is(err, ErrStopped) {
		t.Fatalf("op after Stop: %v, want ErrStopped", err)
	}
}

// gatedStore is a regmap.Node whose Start parks on a gate, so a test can
// hold the event loop inside a burst while the mailbox fills. Embedding
// keeps the node's Flusher and writer-set methods visible to KeyedNode.
type gatedStore struct {
	*regmap.Node
	entered chan struct{}
	gate    chan struct{}
}

func (g *gatedStore) Start(key string, op proto.OpID, kind proto.OpKind, val proto.Value) proto.Effects {
	g.entered <- struct{}{}
	<-g.gate
	return g.Node.Start(key, op, kind, val)
}

// syncCounter counts the Syncs a node asks of its log.
type syncCounter struct {
	*storage.FileWAL
	syncs int
}

func (c *syncCounter) Sync() error {
	c.syncs++
	return c.FileWAL.Sync()
}

// TestKeyedNodeGroupCommit runs the commit point on the real event loop: a
// mailbox drain is one burst, so concurrent Puts on distinct keys share one
// WAL sync — and no Put returns before the sync covering it, Stop or not.
func TestKeyedNodeGroupCommit(t *testing.T) {
	// One process is its own quorum: a write completes inside its Start
	// step, so its completion is held for the burst's Flush.
	st, err := regmap.NewNode(0, regmap.Config{N: 1, Coalesce: true})
	if err != nil {
		t.Fatal(err)
	}
	log := &syncCounter{FileWAL: storage.NewMemLog()}
	st.AttachStorage(log)
	const puts = 32
	g := &gatedStore{Node: st, entered: make(chan struct{}, puts), gate: make(chan struct{}, puts)}
	nd := NewKeyedNode(0, g, func(int, proto.Message) {})
	defer nd.Stop()

	acked := make(chan error, puts)
	put := func(i int) {
		go func() { acked <- nd.Put(fmt.Sprintf("key-%02d", i), []byte{byte(i)}) }()
	}
	queued := func() int {
		nd.mu.Lock()
		defer nd.mu.Unlock()
		return len(nd.queue)
	}

	// Burst one is a single Put, parked inside its Start; the other 31
	// pile up in the mailbox behind it and drain as burst two.
	put(0)
	<-g.entered
	for i := 1; i < puts; i++ {
		put(i)
	}
	for queued() < puts-1 {
		time.Sleep(time.Millisecond)
	}
	g.gate <- struct{}{}
	if err := <-acked; err != nil {
		t.Fatal(err)
	}
	if got := log.syncs; got != 1 {
		t.Fatalf("a burst of one cost %d syncs, want 1", got)
	}

	// Stop lands mid-burst: the burst in progress still commits before it
	// acknowledges, and nothing is acknowledged that is not durable.
	<-g.entered
	stopped := make(chan struct{})
	go func() { nd.Stop(); close(stopped) }()
	for halted := false; !halted; time.Sleep(time.Millisecond) {
		nd.mu.Lock()
		halted = nd.halted != nil
		nd.mu.Unlock()
	}
	select {
	case err := <-acked:
		t.Fatalf("a Put returned (%v) while its burst was still unsynced", err)
	default:
	}
	for i := 1; i < puts; i++ {
		g.gate <- struct{}{}
	}
	for i := 1; i < puts; i++ {
		if err := <-acked; err != nil {
			t.Fatalf("a Put of the burst in progress failed: %v", err)
		}
	}
	<-stopped
	if got := log.syncs; got != 2 {
		t.Fatalf("%d puts cost %d syncs, want 2 (one per burst)", puts, got)
	}
	records := 0
	if err := log.Replay(func(storage.Record) error { records++; return nil }); err != nil {
		t.Fatal(err)
	}
	if records != puts {
		t.Fatalf("%d records durable for %d acknowledged puts", records, puts)
	}
	if err := nd.Put("late", []byte("x")); !errors.Is(err, ErrStopped) {
		t.Fatalf("Put after Stop: %v, want ErrStopped", err)
	}
}
