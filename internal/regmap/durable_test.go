package regmap

import (
	"fmt"
	"path/filepath"
	"testing"

	"twobitreg/internal/core"
	"twobitreg/internal/proto"
	"twobitreg/internal/storage"
)

// keyedMesh is a minimal deterministic FIFO mesh over Nodes for the
// crash-restart tests, mirroring core's durableMesh at the keyed layer.
type keyedMesh struct {
	t      *testing.T
	nodes  []*Node
	queues [][][]proto.Message
	down   []bool
	done   map[proto.OpID]proto.Completion
}

func newKeyedMesh(t *testing.T, nodes []*Node) *keyedMesh {
	m := &keyedMesh{t: t, nodes: nodes, down: make([]bool, len(nodes)), done: map[proto.OpID]proto.Completion{}}
	m.queues = make([][][]proto.Message, len(nodes))
	for i := range m.queues {
		m.queues[i] = make([][]proto.Message, len(nodes))
	}
	return m
}

func (m *keyedMesh) route(from int, eff proto.Effects) {
	for _, s := range eff.Sends {
		m.queues[from][s.To] = append(m.queues[from][s.To], s.Msg)
	}
	for _, d := range eff.Done {
		m.done[d.Op] = d
	}
}

func (m *keyedMesh) pump() {
	for progress := true; progress; {
		progress = false
		for from := range m.nodes {
			for to := range m.nodes {
				if len(m.queues[from][to]) == 0 {
					continue
				}
				msg := m.queues[from][to][0]
				m.queues[from][to] = m.queues[from][to][1:]
				progress = true
				if m.down[to] {
					continue
				}
				m.route(to, m.nodes[to].Deliver(from, msg))
			}
		}
	}
}

func (m *keyedMesh) start(pid int, key string, op proto.OpID, kind proto.OpKind, v proto.Value) {
	m.t.Helper()
	m.route(pid, m.nodes[pid].Start(key, op, kind, v))
	m.pump()
	if _, ok := m.done[op]; !ok {
		m.t.Fatalf("op %d (%v on %s at p%d) did not complete", op, kind, key, pid)
	}
}

func (m *keyedMesh) crash(pid int) {
	m.down[pid] = true
	for j := range m.nodes {
		m.queues[pid][j] = nil
		m.queues[j][pid] = nil
	}
}

func (m *keyedMesh) revive(pid int, fresh *Node) {
	m.down[pid] = false
	m.nodes[pid] = fresh
	for j := range m.nodes {
		if j == pid {
			continue
		}
		m.route(pid, fresh.PeerRestarted(j))
		m.route(j, m.nodes[j].PeerRestarted(pid))
	}
	m.pump()
}

func TestNodeDurableRecovery(t *testing.T) {
	const n = 3
	cfg := Config{N: n, DefaultWriters: []int{0, 1, 2}, Writers: map[string][]int{
		"solo": {1}, // single-writer key: a register with one lane
	}}
	nodes := make([]*Node, n)
	logs := make([]*storage.FileWAL, n)
	for i := 0; i < n; i++ {
		nd, err := NewNode(i, cfg)
		if err != nil {
			t.Fatal(err)
		}
		logs[i] = storage.NewMemLog()
		nd.AttachStorage(logs[i])
		nodes[i] = nd
	}
	m := newKeyedMesh(t, nodes)

	m.start(0, "alpha", 1, proto.OpWrite, proto.Value("a1"))
	m.start(1, "solo", 2, proto.OpWrite, proto.Value("s1"))
	m.start(2, "alpha", 3, proto.OpWrite, proto.Value("a2"))
	m.start(1, "solo", 4, proto.OpWrite, proto.Value("s2"))

	// Crash node 1 — writer of a lane of both keys — and recover it from its
	// own log alone.
	m.crash(1)
	if err := logs[1].Reopen(); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewNode(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Recover(logs[1]); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	// Both keys' registers were rebuilt from the one log.
	if got := fresh.Keys(); len(got) != 2 || got[0] != "alpha" || got[1] != "solo" {
		t.Fatalf("recovered keys = %v, want [alpha solo]", got)
	}
	m.revive(1, fresh)

	// The revived node serves its recovered single-writer key.
	m.start(1, "solo", 10, proto.OpRead, nil)
	if got := m.done[10].Value; string(got) != "s2" {
		t.Fatalf("revived solo read = %q, want s2", got)
	}
	// And continues writing both keys.
	m.start(1, "solo", 11, proto.OpWrite, proto.Value("s3"))
	m.start(1, "alpha", 12, proto.OpWrite, proto.Value("a3"))
	m.start(2, "alpha", 13, proto.OpRead, nil)
	if got := m.done[13].Value; string(got) != "a3" {
		t.Fatalf("alpha read after revival = %q, want a3", got)
	}
	m.start(0, "solo", 14, proto.OpRead, nil)
	if got := m.done[14].Value; string(got) != "s3" {
		t.Fatalf("solo read after revival = %q, want s3", got)
	}
}

func TestNodeRecoverRejectsAfterAttach(t *testing.T) {
	nd, err := NewNode(0, Config{N: 3})
	if err != nil {
		t.Fatal(err)
	}
	nd.AttachStorage(storage.NewMemLog())
	if err := nd.Recover(storage.NewMemLog()); err == nil {
		t.Fatal("Recover after AttachStorage accepted")
	}
}

func TestKeyStoreStampsAndFilters(t *testing.T) {
	base := &syncCounter{FileWAL: storage.NewMemLog()}
	nd, err := NewNode(0, Config{N: 3})
	if err != nil {
		t.Fatal(err)
	}
	nd.AttachStorage(base)
	ka := keyStore{key: "ka", nd: nd}
	kb := keyStore{key: "kb", nd: nd}
	ka.Append(storage.Record{Lane: 0, Index: 1, Val: proto.Value("va")})
	kb.Append(storage.Record{Lane: 1, Index: 1, Val: proto.Value("vb")})
	// A register's Sync is the dirty signal, not I/O: the node syncs where
	// it releases.
	if err := ka.Sync(); err != nil {
		t.Fatal(err)
	}
	if synced := durableRecords(t, base); !nd.dirty || base.syncs != 0 || synced != 0 {
		t.Fatalf("keyStore.Sync: dirty=%v syncs=%d synced=%d, want a dirty mark and no I/O",
			nd.dirty, base.syncs, synced)
	}
	nd.commit()
	if nd.dirty || base.syncs != 1 {
		t.Fatalf("commit: dirty=%v syncs=%d, want one sync", nd.dirty, base.syncs)
	}
	var got []string
	if err := kb.Replay(func(r storage.Record) error {
		if r.Key != "" {
			t.Fatalf("keyStore leaked key %q through Replay", r.Key)
		}
		got = append(got, fmt.Sprintf("%d:%s", r.Lane, r.Val))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "1:vb" {
		t.Fatalf("kb replay = %v, want [1:vb]", got)
	}
}

// --- the commit point: the keyed node syncs where it releases ---

// syncCounter counts the Syncs a node asks of its log.
type syncCounter struct {
	*storage.FileWAL
	syncs int
}

func (c *syncCounter) Sync() error {
	c.syncs++
	return c.FileWAL.Sync()
}

// durableRecords counts the records log replays: the synced ones.
func durableRecords(t *testing.T, log storage.StableStorage) int {
	t.Helper()
	n := 0
	if err := log.Replay(func(storage.Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	return n
}

type inFrame struct {
	from int
	msg  proto.Message
}

type startOp struct {
	key  string
	op   proto.OpID
	kind proto.OpKind
	val  proto.Value
}

// burstMesh drives storage-attached coalescing Nodes the way
// cluster.KeyedNode does: a process takes its whole inbox plus any client
// invocations as one burst of steps, then gets one Flush. Every step is
// checked against the commit point — nothing may leave it.
type burstMesh struct {
	t     *testing.T
	nodes []*Node
	logs  []*syncCounter
	inbox [][]inFrame
	done  []proto.Completion
}

func newBurstMesh(t *testing.T, cfg Config) *burstMesh {
	t.Helper()
	m := &burstMesh{t: t, inbox: make([][]inFrame, cfg.N)}
	for i := 0; i < cfg.N; i++ {
		nd, err := NewNode(i, cfg)
		if err != nil {
			t.Fatal(err)
		}
		log := &syncCounter{FileWAL: storage.NewMemLog()}
		nd.AttachStorage(log)
		m.nodes, m.logs = append(m.nodes, nd), append(m.logs, log)
	}
	return m
}

// held asserts that a step of pid released nothing and did no I/O.
func (m *burstMesh) held(pid, syncs int, eff proto.Effects) {
	m.t.Helper()
	if len(eff.Sends) > 0 || len(eff.Done) > 0 {
		m.t.Fatalf("p%d: %d sends and %d completions escaped a step before its Flush", pid, len(eff.Sends), len(eff.Done))
	}
	if got := m.logs[pid].syncs; got != syncs {
		m.t.Fatalf("p%d synced inside a step (%d -> %d)", pid, syncs, got)
	}
}

// steps runs pid's inbox, then starts, as one burst — without the Flush.
func (m *burstMesh) steps(pid int, starts ...startOp) {
	m.t.Helper()
	nd, syncs := m.nodes[pid], m.logs[pid].syncs
	in := m.inbox[pid]
	m.inbox[pid] = nil
	for _, f := range in {
		m.held(pid, syncs, nd.Deliver(f.from, f.msg))
	}
	for _, s := range starts {
		m.held(pid, syncs, nd.Start(s.key, s.op, s.kind, s.val))
	}
}

// flush grants pid its flush tick and routes what it releases.
func (m *burstMesh) flush(pid int) proto.Effects {
	eff := m.nodes[pid].Flush()
	eff.Sends = append([]proto.Send(nil), eff.Sends...)
	for _, s := range eff.Sends {
		m.inbox[s.To] = append(m.inbox[s.To], inFrame{from: pid, msg: s.Msg})
	}
	m.done = append(m.done, eff.Done...)
	return eff
}

func (m *burstMesh) burst(pid int, starts ...startOp) proto.Effects {
	m.t.Helper()
	m.steps(pid, starts...)
	return m.flush(pid)
}

// settle runs bursts until every inbox is empty.
func (m *burstMesh) settle() {
	m.t.Helper()
	for progress := true; progress; {
		progress = false
		for pid := range m.nodes {
			if len(m.inbox[pid]) > 0 {
				m.burst(pid)
				progress = true
			}
		}
	}
}

func (m *burstMesh) completed(op proto.OpID) (proto.Completion, bool) {
	for _, d := range m.done {
		if d.Op == op {
			return d, true
		}
	}
	return proto.Completion{}, false
}

func writes(first proto.OpID, keys ...string) []startOp {
	out := make([]startOp, len(keys))
	for i, key := range keys {
		op := first + proto.OpID(i)
		out[i] = startOp{key: key, op: op, kind: proto.OpWrite, val: proto.Value(fmt.Sprintf("%s=%d", key, op))}
	}
	return out
}

// frameKeys lists, in order, the keys of the frames pid's flush sent to
// peer `to`.
func frameKeys(t *testing.T, eff proto.Effects, to int) []string {
	t.Helper()
	var keys []string
	for _, s := range eff.Sends {
		if s.To != to {
			continue
		}
		switch f := s.Msg.(type) {
		case KeyedMsg:
			keys = append(keys, f.Key)
		case MultiMsg:
			for _, sub := range f.Frames {
				keys = append(keys, sub.Key)
			}
		default:
			t.Fatalf("foreign frame %T", s.Msg)
		}
	}
	return keys
}

// TestNodeGroupCommitOneSyncPerBurst: a burst that appends k writes on
// distinct keys (their freshness rounds just answered) and takes the inbound
// echoes completing k earlier ones costs exactly one sync, at the Flush, and
// everything the burst produced leaves after it — completions in
// completion order, frames in per-link emission order.
func TestNodeGroupCommitOneSyncPerBurst(t *testing.T) {
	m := newBurstMesh(t, Config{N: 3, Coalesce: true})
	first := []string{"a0", "a1", "a2", "a3", "a4"}
	second := []string{"b0", "b1", "b2", "b3", "b4"}
	k := len(first)

	// The freshness round appends nothing, so it syncs nothing.
	m.burst(0, writes(1, first...)...)
	m.burst(1)
	m.burst(2)
	if got := m.logs[0].syncs + m.logs[1].syncs + m.logs[2].syncs; got != 0 {
		t.Fatalf("a freshness round cost %d syncs, want 0", got)
	}
	eff := m.burst(0) // the PROCEEDs: k appends
	if got := m.logs[0].syncs; got != 1 {
		t.Fatalf("burst of %d appends cost %d syncs, want 1", k, got)
	}
	if got := durableRecords(t, m.logs[0]); got != k {
		t.Fatalf("%d records durable after the flush, want %d", got, k)
	}
	for _, to := range []int{1, 2} {
		if got := fmt.Sprint(frameKeys(t, eff, to)); got != fmt.Sprint(first) {
			t.Fatalf("frames to p%d = %s, want emission order %v", to, got, first)
		}
	}

	// The second writes' freshness requests queue behind the first writes'
	// frames, so one burst at the writer takes the echoes that complete
	// writes 1..k and the PROCEEDs that append k new ones.
	m.burst(0, writes(proto.OpID(k+1), second...)...)
	for _, pid := range []int{1, 2} { // adopt and echo: k appends, one sync
		m.burst(pid)
		if got := m.logs[pid].syncs; got != 1 {
			t.Fatalf("p%d adopted %d values with %d syncs, want 1", pid, k, got)
		}
	}
	before := m.logs[0].syncs
	m.steps(0)
	if !m.nodes[0].PendingFlush() {
		t.Fatal("PendingFlush false with completions, frames and unsynced records held")
	}
	eff = m.flush(0)
	if got := m.logs[0].syncs; got != before+1 {
		t.Fatalf("the burst cost %d syncs, want exactly 1", got-before)
	}
	if got := durableRecords(t, m.logs[0]); got != 2*k {
		t.Fatalf("%d records durable, want %d", got, 2*k)
	}
	if len(eff.Done) != k {
		t.Fatalf("flush released %d completions, want %d", len(eff.Done), k)
	}
	for i, d := range eff.Done {
		if d.Op != proto.OpID(i+1) {
			t.Fatalf("completion %d is op %d, want %d", i, d.Op, i+1)
		}
	}
	for _, to := range []int{1, 2} {
		if got := fmt.Sprint(frameKeys(t, eff, to)); got != fmt.Sprint(second) {
			t.Fatalf("frames to p%d = %s, want emission order %v", to, got, second)
		}
	}
	if m.nodes[0].PendingFlush() {
		t.Fatal("PendingFlush still true after the flush")
	}
}

// TestNodeCrashBeforeFlushLosesOnlyTheUnacked: a crash between a burst's
// steps and its Flush loses exactly what nobody was told about. The
// overwrites of that burst never completed and reached no peer; everything
// acknowledged before it is served after recovery.
func TestNodeCrashBeforeFlushLosesOnlyTheUnacked(t *testing.T) {
	cfg := Config{N: 3, Coalesce: true}
	m := newBurstMesh(t, cfg)
	keys := []string{"x", "y", "z"}
	m.burst(0, writes(1, keys...)...)
	m.settle()
	for op := proto.OpID(1); op <= 3; op++ {
		if _, ok := m.completed(op); !ok {
			t.Fatalf("write %d did not complete", op)
		}
	}
	durable := durableRecords(t, m.logs[0])

	// The doomed burst: the overwrites' freshness rounds answered, three
	// values appended, nothing flushed.
	m.burst(0, writes(4, keys...)...)
	m.burst(1)
	m.burst(2)
	m.steps(0)
	if !m.nodes[0].dirty {
		t.Fatal("the doomed burst appended nothing")
	}
	if err := m.logs[0].Reopen(); err != nil {
		t.Fatal(err)
	}
	if got := durableRecords(t, m.logs[0]); got != durable {
		t.Fatalf("%d records durable after the crash, want the %d acknowledged ones", got, durable)
	}
	if len(m.inbox[1])+len(m.inbox[2]) != 0 {
		t.Fatal("a peer was sent frames of a burst that never flushed")
	}

	fresh, err := NewNode(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Recover(m.logs[0]); err != nil {
		t.Fatal(err)
	}
	m.nodes[0] = fresh
	for _, j := range []int{1, 2} {
		syncs := m.logs[0].syncs
		m.held(0, syncs, fresh.PeerRestarted(j))
		m.held(j, m.logs[j].syncs, m.nodes[j].PeerRestarted(0))
		m.flush(0)
		m.flush(j)
	}
	m.settle()

	for op := proto.OpID(4); op <= 6; op++ {
		if _, ok := m.completed(op); ok {
			t.Fatalf("write %d completed although its burst never flushed", op)
		}
	}
	for i, key := range keys {
		for _, pid := range []int{0, 1} {
			op := proto.OpID(10 + 2*i + pid)
			m.burst(pid, startOp{key: key, op: op, kind: proto.OpRead})
			m.settle()
			d, ok := m.completed(op)
			if want := fmt.Sprintf("%s=%d", key, i+1); !ok || string(d.Value) != want {
				t.Fatalf("read of %s at p%d = %q (completed %v), want the acknowledged %q", key, pid, d.Value, ok, want)
			}
		}
	}
}

// failingLog is a stable storage whose Sync always fails.
type failingLog struct{ *storage.FileWAL }

func (failingLog) Sync() error { return fmt.Errorf("disk on fire") }

// TestNodeSyncFailureIsFailStop: a failed sync panics at the one commit
// point, before anything it covers is released — at the Flush of a
// coalescing node (whose held state stays held), inside the step of a
// non-coalescing one.
func TestNodeSyncFailureIsFailStop(t *testing.T) {
	panics := func(fn func()) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		fn()
		return false
	}
	// p0's first value on key k: adopting it appends, and the echo attests it.
	frame := KeyedMsg{Key: "k", Inner: core.LaneMsg{Writer: 0, M: core.WriteMsg{Bit: 1, Val: proto.Value("v")}}}
	for _, coalesce := range []bool{true, false} {
		nd, err := NewNode(1, Config{N: 3, Coalesce: coalesce})
		if err != nil {
			t.Fatal(err)
		}
		nd.AttachStorage(failingLog{storage.NewMemLog()})
		step := func() {
			if eff := nd.Deliver(0, frame); len(eff.Sends)+len(eff.Done) > 0 {
				t.Errorf("coalesce=%v: the step released %d sends before its sync", coalesce, len(eff.Sends))
			}
		}
		if !coalesce {
			if !panics(step) {
				t.Fatal("non-coalescing node survived a failed sync at the end of its step")
			}
			continue
		}
		step()
		if !panics(func() { nd.Flush() }) {
			t.Fatal("coalescing node survived a failed sync at its Flush")
		}
		if nd.held == 0 {
			t.Fatal("the failed Flush released the frames it held")
		}
	}
}

// TestNodeNonCoalescingCommitsPerStep: a non-coalescing node releases at
// the end of each step, so it commits there — once, however many
// registers the step dirtied.
func TestNodeNonCoalescingCommitsPerStep(t *testing.T) {
	// A coalescing peer packs two keys' WRITE frames into one MultiMsg once
	// their freshness rounds are answered.
	writer, err := NewNode(0, Config{N: 3, Coalesce: true})
	if err != nil {
		t.Fatal(err)
	}
	writer.Start("p", 1, proto.OpWrite, proto.Value("p1"))
	writer.Start("q", 2, proto.OpWrite, proto.Value("q1"))
	writer.Flush()
	writer.Deliver(2, MultiMsg{Frames: []KeyedMsg{{Key: "p", Inner: core.ProceedMsg{}}, {Key: "q", Inner: core.ProceedMsg{}}}})
	var multi proto.Message
	for _, s := range writer.Flush().Sends {
		if s.To == 1 {
			multi = s.Msg
		}
	}
	if mm, ok := multi.(MultiMsg); !ok || len(mm.Frames) != 2 {
		t.Fatalf("writer shipped %#v to p1, want a 2-frame MultiMsg", multi)
	}

	nd, err := NewNode(1, Config{N: 3})
	if err != nil {
		t.Fatal(err)
	}
	log := &syncCounter{FileWAL: storage.NewMemLog()}
	nd.AttachStorage(log)
	eff := nd.Deliver(0, multi)
	if got := log.syncs; got != 1 {
		t.Fatalf("a step dirtying two registers cost %d syncs, want 1", got)
	}
	if got := durableRecords(t, log); got != 2 {
		t.Fatalf("%d records durable at step end, want 2", got)
	}
	if len(eff.Sends) == 0 || nd.PendingFlush() {
		t.Fatalf("step released %d sends with PendingFlush=%v, want its echoes out and nothing held",
			len(eff.Sends), nd.PendingFlush())
	}
}

// TestVolatileNodeAllocsUnchanged guards the storage-less path: the commit
// point costs it one branch per step and no allocation. The pinned counts
// are those of the commit that ran every key on the multi-writer register,
// less one each: Deliver no longer lets its argument escape, so this test's
// boxing of a KeyedMsg literal stays on the stack (frames off the wire come
// boxed by the decoder either way). "Start" is a whole read, which
// completes on one peer's PROCEED.
func TestVolatileNodeAllocsUnchanged(t *testing.T) {
	nd, err := NewNode(0, Config{N: 3, Coalesce: true})
	if err != nil {
		t.Fatal(err)
	}
	op := proto.OpID(0)
	for _, tc := range []struct {
		name string
		want float64
		fn   func()
	}{
		{"Start", 6, func() {
			op++
			nd.Start("k", op, proto.OpRead, nil)
			nd.Deliver(1, KeyedMsg{Key: "k", Inner: core.ProceedMsg{}})
			nd.Flush()
		}},
		{"Deliver+Flush", 1, func() {
			nd.Deliver(1, KeyedMsg{Key: "k", Inner: core.ReadMsg{}})
			nd.Flush()
		}},
		{"idle Flush", 0, func() { nd.Flush() }},
	} {
		if got := testing.AllocsPerRun(200, tc.fn); got != tc.want {
			t.Errorf("%s: %v allocs/run on a storage-less node, want %v", tc.name, got, tc.want)
		}
	}
}

// TestNodeRestartCoversKeysCreatedLater: a link reset is the node's, not
// only the registers' it happened to host. A key the revived node never
// logged is created there by the first frame that names it — after
// PeerRestarted ran — and must start from the reset link like the others:
// forwarded on at once in both directions, because whoever was waiting on
// the previous incarnation for that key's echoes is still waiting.
func TestNodeRestartCoversKeysCreatedLater(t *testing.T) {
	const n, victim = 5, 4
	cfg := Config{N: n, DefaultWriters: []int{0, 1, 2, 3, 4}}
	nodes := make([]*Node, n)
	logs := make([]*storage.FileWAL, n)
	for i := range nodes {
		nd, err := NewNode(i, cfg)
		if err != nil {
			t.Fatal(err)
		}
		logs[i] = storage.NewMemLog()
		nd.AttachStorage(logs[i])
		nodes[i] = nd
	}
	m := newKeyedMesh(t, nodes)
	m.start(0, "old", 1, proto.OpWrite, proto.Value("o1"))

	m.crash(victim)
	if err := logs[victim].Reopen(); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewNode(victim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Recover(logs[victim]); err != nil {
		t.Fatal(err)
	}
	m.revive(victim, fresh)
	if fresh.MW("new") != nil {
		t.Fatal("the revived node hosts a key nobody has named yet")
	}

	// Only p0 has an operation on "new"; p2 and the revived node relay.
	m.start(0, "new", 2, proto.OpWrite, proto.Value("n1"))
	born := fresh.MW("new")
	if born == nil {
		t.Fatal("the write never reached the revived node")
	}
	for j := 0; j < victim; j++ {
		if !born.Serving(j) {
			t.Fatalf("register created after the restart treats the link to p%d as lazy", j)
		}
		if got := born.LaneSent(0, j); got != 1 {
			t.Fatalf("revived node sent p%d %d of 1 indices of the new key", j, got)
		}
	}
	if got := nodes[2].MW("new").LaneSent(0, victim); got != 1 {
		t.Fatalf("p2 sent the revived node %d of 1 indices of the new key", got)
	}
	if got := nodes[2].MW("new").LaneSent(0, 3); got != 0 {
		t.Fatalf("p2 -> p3 saw no restart yet carried %d indices", got)
	}
}

// TestKeyStateGrowsWithHistory pins today's unbounded growth at n=3: after
// each of N sequential writes to one key by p0, every node retains v0 plus
// every written value on the writer's lane and v0 on the other two (N+3
// entries), and its FileWAL's logical length (FileWAL.Len, not the file's
// size, which runs ahead in chunks of zeros) is the 8-byte magic plus one
// 28-byte frame per write: an 8-byte frame header and one 20-byte record
// (16-byte header, 1-byte key, 3-byte value). Nothing compacts a served key's lanes
// or truncates its log, so both numbers grow with history; a bound on
// either belongs in this table. The store runs uncoalesced here — coalescing
// changes framing only, not what a register retains or logs.
func TestKeyStateGrowsWithHistory(t *testing.T) {
	const n = 3
	dir := t.TempDir()
	nodes := make([]*Node, n)
	wals := make([]*storage.FileWAL, n)
	for i := range nodes {
		nd, err := NewNode(i, Config{N: n})
		if err != nil {
			t.Fatal(err)
		}
		wal, err := storage.OpenFileWAL(filepath.Join(dir, fmt.Sprintf("p%d.wal", i)))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { wal.Close() })
		nd.AttachStorage(wal)
		nodes[i], wals[i] = nd, wal
	}
	m := newKeyedMesh(t, nodes)
	op := proto.OpID(0)
	for _, row := range []struct {
		writes, retained int
		walBytes         int64
	}{{10, 13, 8 + 280}, {20, 23, 8 + 560}, {40, 43, 8 + 1120}} {
		for op < proto.OpID(row.writes) {
			op++
			m.start(0, "k", op, proto.OpWrite, proto.Value(fmt.Sprintf("v%02d", op)))
		}
		for i, nd := range nodes {
			retained := 0
			for w := 0; w < n; w++ {
				retained += nd.MW("k").LaneRetained(w)
			}
			if got := wals[i].Len(); retained != row.retained || got != row.walBytes {
				t.Errorf("after %d writes p%d retains %d entries and logs %d bytes, want %d and %d",
					row.writes, i, retained, got, row.retained, row.walBytes)
			}
		}
	}
}
