package regmap_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"twobitreg/internal/cluster"
	"twobitreg/internal/core"
	"twobitreg/internal/metrics"
	"twobitreg/internal/proto"
	"twobitreg/internal/regmap"
	"twobitreg/internal/wire"
)

// store is the keyed store as a running system: one regmap.Node per
// process on the runtime's event loop (cluster.KeyedNode), wired mailbox to
// mailbox in memory — the served stack minus TCP. Operations on one key
// through one process serialize, different keys proceed independently, and
// a crashed process simply stops draining its mailbox.
type store struct {
	procs []*regmap.Node
	nodes []*cluster.KeyedNode
}

// startStore runs cfg's store; col, if non-nil, sees every sent message.
func startStore(t *testing.T, cfg regmap.Config, col *metrics.Collector) *store {
	t.Helper()
	s := &store{procs: make([]*regmap.Node, cfg.N), nodes: make([]*cluster.KeyedNode, cfg.N)}
	for i := range s.procs {
		var err error
		if s.procs[i], err = regmap.NewNode(i, cfg); err != nil {
			t.Fatal(err)
		}
	}
	for i := range s.nodes {
		i := i
		s.nodes[i] = cluster.NewKeyedNode(i, s.procs[i], func(to int, msg proto.Message) {
			if col != nil {
				col.OnSend(msg)
			}
			s.nodes[to].Deliver(i, msg)
		})
	}
	t.Cleanup(s.Stop)
	return s
}

func newStore(t *testing.T, n int) *store {
	return startStore(t, regmap.Config{N: n}, nil)
}

// Write stores val under key via the first member of key's writer set.
func (s *store) Write(key string, val []byte) error {
	return s.WriteVia(s.procs[0].WritersFor(key)[0], key, val)
}

func (s *store) WriteVia(pid int, key string, val []byte) error { return s.nodes[pid].Put(key, val) }

func (s *store) Read(pid int, key string) ([]byte, error) { return s.nodes[pid].Get(key) }

func (s *store) Crash(pid int) { s.nodes[pid].Crash() }

func (s *store) Stop() {
	for _, nd := range s.nodes {
		nd.Stop()
	}
}

func TestStoreWriteRead(t *testing.T) {
	t.Parallel()
	s := newStore(t, 5)
	if err := s.Write("alpha", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Write("beta", []byte("2")); err != nil {
		t.Fatal(err)
	}
	for pid := 0; pid < 5; pid++ {
		a, err := s.Read(pid, "alpha")
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.Read(pid, "beta")
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != "1" || string(b) != "2" {
			t.Fatalf("p%d read alpha=%q beta=%q", pid, a, b)
		}
	}
}

func TestStoreKeysAreIndependent(t *testing.T) {
	t.Parallel()
	s := newStore(t, 3)
	if err := s.Write("k", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// A never-written key reads nil even after other keys were written.
	v, err := s.Read(2, "unwritten")
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Fatalf("unwritten key read %q, want nil", v)
	}
}

func TestStoreOverwrite(t *testing.T) {
	t.Parallel()
	s := newStore(t, 3)
	for k := 1; k <= 10; k++ {
		if err := s.Write("cfg", []byte(fmt.Sprintf("rev%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	v, err := s.Read(1, "cfg")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "rev10" {
		t.Fatalf("read %q, want rev10", v)
	}
}

func TestStoreConcurrentKeys(t *testing.T) {
	t.Parallel()
	s := newStore(t, 5)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := fmt.Sprintf("key-%d", w)
			for k := 1; k <= 10; k++ {
				if err := s.Write(key, []byte(fmt.Sprintf("%d", k))); err != nil {
					t.Errorf("write %s: %v", key, err)
					return
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := fmt.Sprintf("key-%d", w)
			for k := 0; k < 10; k++ {
				if _, err := s.Read(1+(w+k)%4, key); err != nil {
					t.Errorf("read %s: %v", key, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Final values converge.
	for w := 0; w < 8; w++ {
		v, err := s.Read(4, fmt.Sprintf("key-%d", w))
		if err != nil {
			t.Fatal(err)
		}
		if string(v) != "10" {
			t.Fatalf("key-%d = %q, want 10", w, v)
		}
	}
}

func TestStoreCrashMinority(t *testing.T) {
	t.Parallel()
	s := newStore(t, 5)
	if err := s.Write("k", []byte("before")); err != nil {
		t.Fatal(err)
	}
	s.Crash(3)
	s.Crash(4)
	if err := s.Write("k", []byte("after")); err != nil {
		t.Fatalf("write with minority crashed: %v", err)
	}
	v, err := s.Read(1, "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "after" {
		t.Fatalf("read %q, want after", v)
	}
	if _, err := s.Read(4, "k"); !errors.Is(err, cluster.ErrCrashed) {
		t.Fatalf("read via crashed process: %v, want ErrCrashed", err)
	}
}

func TestStoreControlBitsAccounting(t *testing.T) {
	t.Parallel()
	col := &metrics.Collector{}
	s := startStore(t, regmap.Config{N: 3}, col)
	if err := s.Write("ab", []byte("v")); err != nil {
		t.Fatal(err)
	}
	snap := col.Snapshot()
	// Every message carries the register's 2 bits + 16 key bits, plus the
	// lane id on lane frames; only the 2 are protocol control.
	if want := 2 + 16 + core.WriterIDBits; snap.MaxCtrlBits != want {
		t.Fatalf("max control bits = %d, want %d (2 register + 16 key + lane id)", snap.MaxCtrlBits, want)
	}
	if snap.MeanCtrlBitsPerEntry != 2 {
		t.Fatalf("census: %.6f control bits per logical entry, want exactly 2", snap.MeanCtrlBitsPerEntry)
	}
}

func TestStoreRejectsBadInput(t *testing.T) {
	t.Parallel()
	if _, err := regmap.NewNode(0, regmap.Config{N: 0}); err == nil {
		t.Fatal("accepted N=0")
	}
	// Keys travel in every message: an oversized one is refused where the
	// configuration names it (requests are bounded by the client protocol's
	// one-byte key length before they reach a node).
	long := string(make([]byte, regmap.MaxKeyLen+1))
	_, err := regmap.NewNode(0, regmap.Config{N: 3, Writers: map[string][]int{long: {0}}})
	if !errors.Is(err, regmap.ErrKeyTooLong) {
		t.Fatalf("oversized key: %v, want ErrKeyTooLong", err)
	}
}

// TestNodeDropsFramesItCannotTake: the wire decodes frames no register of an
// n-process store can take — a lane address at or past n, a bare unkeyed
// frame, a keyed frame whose inner type the register does not speak. A
// peer's bad frame must not panic the node's event loop: Deliver drops and
// counts it, delivers the good subframes of a multi-frame, and the node
// goes on serving.
func TestNodeDropsFramesItCannotTake(t *testing.T) {
	t.Parallel()
	const n = 3
	nd, err := regmap.NewNode(0, regmap.Config{N: n})
	if err != nil {
		t.Fatal(err)
	}
	lane := func(w int) proto.Message {
		return core.LaneMsg{Writer: w, M: core.WriteMsg{Bit: 1, Val: proto.Value("v")}}
	}
	bad := []proto.Message{
		regmap.KeyedMsg{Key: "k", Inner: lane(n)},
		regmap.KeyedMsg{Key: "k", Inner: core.LaneCompactMsg{Writer: 255, Bit: 1, Count: 2, Val: proto.Value("v")}},
		regmap.KeyedMsg{Key: "k", Inner: core.LaneBatchMsg{Writer: n + 1, Bit: 1, Vals: []proto.Value{{1}, {2}}}},
		regmap.KeyedMsg{Key: "k", Inner: core.WriteMsg{Bit: 1, Val: proto.Value("v")}},
		core.ReadMsg{},
		lane(1),
		regmap.MultiMsg{Frames: []regmap.KeyedMsg{
			{Key: "m", Inner: core.ReadMsg{}},
			{Key: "m", Inner: lane(7)},
		}},
	}
	for _, m := range bad {
		b, err := wire.Encode(m)
		if err != nil {
			t.Fatalf("encode %T: %v", m, err)
		}
		got, err := wire.Decode(b)
		if err != nil {
			t.Fatalf("the wire refuses %T (%v); this test wants frames a peer can send", m, err)
		}
		nd.Deliver(1, got)
	}
	if got, want := nd.Dropped(), len(bad); got != want {
		t.Fatalf("Dropped() = %d, want %d (every bad frame, and the multi-frame's bad subframe)", got, want)
	}
	if keys := fmt.Sprint(nd.Keys()); keys != "[m]" {
		t.Fatalf("hosted keys %s, want [m]: only the good subframe may create a register", keys)
	}
	// The node still serves: a peer's freshness request is answered.
	eff := nd.Deliver(1, regmap.KeyedMsg{Key: "k", Inner: core.ReadMsg{}})
	if len(eff.Sends) != 1 || eff.Sends[0].To != 1 {
		t.Fatalf("READ after the bad frames produced %v, want one PROCEED to p1", eff.Sends)
	}
	if m, ok := eff.Sends[0].Msg.(regmap.KeyedMsg); !ok || m.Inner != (core.ProceedMsg{}) {
		t.Fatalf("READ answered with %v, want a keyed PROCEED", eff.Sends[0].Msg)
	}
}

func TestStoreStopUnblocksPending(t *testing.T) {
	t.Parallel()
	s := newStore(t, 3)
	s.Crash(1)
	s.Crash(2) // majority gone: writes cannot finish
	done := make(chan error, 1)
	go func() { done <- s.Write("k", []byte("stuck")) }()
	s.Stop()
	if err := <-done; !errors.Is(err, cluster.ErrStopped) && !errors.Is(err, cluster.ErrCrashed) {
		t.Fatalf("unblocked write: %v, want ErrStopped/ErrCrashed", err)
	}
}

// TestStoreDefaultAdmitsEveryWriter: with no writer sets configured, every
// process may write every key.
func TestStoreDefaultAdmitsEveryWriter(t *testing.T) {
	t.Parallel()
	s := newStore(t, 3)
	for pid := 0; pid < 3; pid++ {
		if !s.procs[pid].IsWriter("k", (pid+1)%3) {
			t.Fatalf("p%d: process %d is not a writer of an unconfigured key", pid, (pid+1)%3)
		}
		want := fmt.Sprintf("from-%d", pid)
		if err := s.WriteVia(pid, "k", []byte(want)); err != nil {
			t.Fatalf("write via p%d: %v", pid, err)
		}
		if v, err := s.Read((pid+2)%3, "k"); err != nil || string(v) != want {
			t.Fatalf("read after p%d's write = %q, %v; want %q", pid, v, err, want)
		}
	}
}

// TestStoreSingleWriterKeyRunsTheRegister: a key with one writer runs the
// same n-lane register as every other key. The writer set is admission
// only: a write through another process fails with ErrNotWriter before it
// reaches the register, so only the writer's lane ever holds a value.
func TestStoreSingleWriterKeyRunsTheRegister(t *testing.T) {
	t.Parallel()
	s := startStore(t, regmap.Config{N: 3, Writers: map[string][]int{"solo": {1}}}, nil)
	if err := s.WriteVia(1, "solo", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteVia(0, "solo", []byte("x")); !errors.Is(err, cluster.ErrNotWriter) {
		t.Fatalf("p0 write to solo: %v, want ErrNotWriter", err)
	}
	v, err := s.Read(0, "solo")
	if err != nil || string(v) != "one" {
		t.Fatalf("p0 read %q, %v; want one", v, err)
	}
	s.Stop() // the event loops are done with the nodes
	for pid, nd := range s.procs {
		mw := nd.MW("solo")
		if mw == nil {
			t.Fatalf("p%d hosts no register for the single-writer key", pid)
		}
		for w := 0; w < 3; w++ { // one lane per process: LaneTop panics past n
			if top := mw.LaneTop(w); w != 1 && top != 0 {
				t.Fatalf("p%d: lane %d holds %d values; only the writer's lane may", pid, w, top)
			}
		}
	}
	if top := s.procs[1].MW("solo").LaneTop(1); top != 1 {
		t.Fatalf("the writer's own lane top is %d, want 1", top)
	}
}
