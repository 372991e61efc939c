package core

import (
	"fmt"
	"testing"

	"twobitreg/internal/proto"
	"twobitreg/internal/storage"
)

// durableMesh is a minimal deterministic FIFO mesh for crash-restart
// tests: per-link queues, round-robin delivery to a fixpoint, and a
// crash that drops the victim's process together with every in-flight
// frame on its links (the incarnation fence a real transport provides by
// killing the connections).
type durableMesh struct {
	t     *testing.T
	procs []proto.Process
	// queues[from][to] is the FIFO link from->to.
	queues [][][]proto.Message
	down   []bool
}

func newDurableMesh(t *testing.T, procs []proto.Process) *durableMesh {
	m := &durableMesh{t: t, procs: procs, down: make([]bool, len(procs))}
	m.queues = make([][][]proto.Message, len(procs))
	for i := range m.queues {
		m.queues[i] = make([][]proto.Message, len(procs))
	}
	return m
}

func (m *durableMesh) route(from int, eff proto.Effects) {
	for _, s := range eff.Sends {
		m.queues[from][s.To] = append(m.queues[from][s.To], s.Msg)
	}
}

func (m *durableMesh) pump() {
	for progress := true; progress; {
		progress = false
		for from := range m.procs {
			for to := range m.procs {
				if len(m.queues[from][to]) == 0 {
					continue
				}
				msg := m.queues[from][to][0]
				m.queues[from][to] = m.queues[from][to][1:]
				progress = true
				if m.down[to] {
					continue
				}
				m.route(to, m.procs[to].Deliver(from, msg))
			}
		}
	}
}

// crash drops the process and fences its links: frames in flight to or
// from the victim vanish.
func (m *durableMesh) crash(pid int) {
	m.down[pid] = true
	for j := range m.procs {
		m.queues[pid][j] = nil
		m.queues[j][pid] = nil
	}
}

// revive swaps in the recovered process and runs the restart protocol:
// the revived process resets its view of every peer, and every peer
// resets its view of the revived process.
func (m *durableMesh) revive(pid int, fresh proto.Process) {
	m.down[pid] = false
	m.procs[pid] = fresh
	rec := fresh.(storage.Recoverable)
	for j := range m.procs {
		if j == pid {
			continue
		}
		m.route(pid, rec.PeerRestarted(j))
		m.route(j, m.procs[j].(storage.Recoverable).PeerRestarted(pid))
	}
	m.pump()
}

func (m *durableMesh) write(pid int, op proto.OpID, v proto.Value) {
	m.t.Helper()
	m.route(pid, m.procs[pid].StartWrite(op, v))
	m.pump()
}

func (m *durableMesh) read(pid int, op proto.OpID) proto.Value {
	m.t.Helper()
	var got proto.Value
	found := false
	grab := func(eff proto.Effects) proto.Effects {
		for _, d := range eff.Done {
			if d.Op == op {
				got, found = d.Value, true
			}
		}
		return eff
	}
	m.route(pid, grab(m.procs[pid].StartRead(op)))
	// Completions surface through Deliver effects; re-scan after pumping.
	for !found {
		before := found
		for from := range m.procs {
			for to := range m.procs {
				if len(m.queues[from][to]) == 0 || m.down[to] {
					continue
				}
				msg := m.queues[from][to][0]
				m.queues[from][to] = m.queues[from][to][1:]
				m.route(to, grab(m.procs[to].Deliver(from, msg)))
			}
		}
		if found == before && m.idleLinks() {
			m.t.Fatalf("read op %d stalled", op)
		}
	}
	m.pump()
	return got
}

func (m *durableMesh) idleLinks() bool {
	for from := range m.procs {
		for to := range m.procs {
			if len(m.queues[from][to]) > 0 {
				return false
			}
		}
	}
	return true
}

func TestProcDurableRecovery(t *testing.T) {
	const n = 3
	procs := make([]proto.Process, n)
	logs := make([]*storage.MemLog, n)
	for i := 0; i < n; i++ {
		p := New(i, n, 0)
		logs[i] = storage.NewMemLog()
		p.AttachStorage(logs[i])
		procs[i] = p
	}
	m := newDurableMesh(t, procs)

	for k := 1; k <= 5; k++ {
		m.write(0, proto.OpID(k), proto.Value(fmt.Sprintf("v%d", k)))
	}
	for i := 0; i < n; i++ {
		// Sync-before-attest: every adopted entry is durable by quiescence.
		if logs[i].SyncedLen() != 5 {
			t.Fatalf("p%d has %d durable records, want 5", i, logs[i].SyncedLen())
		}
	}

	// Crash and revive the WRITER — the hardest case: its local-read fast
	// path and its stream position both depend entirely on recovery.
	m.crash(0)
	logs[0].DropUnsynced()
	fresh := New(0, n, 0)
	if err := fresh.Recover(logs[0]); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if fresh.HistoryLen() != 6 || fresh.WSync(0) != 5 {
		t.Fatalf("recovered writer: HistoryLen=%d WSync=%d, want 6/5", fresh.HistoryLen(), fresh.WSync(0))
	}
	m.revive(0, fresh)

	if err := CheckGlobalInvariants([]*Proc{m.procs[0].(*Proc), m.procs[1].(*Proc), m.procs[2].(*Proc)}); err != nil {
		t.Fatalf("post-revival invariants: %v", err)
	}
	// The revived writer's local fast path must serve the recovered value.
	if got := m.read(0, 100); string(got) != "v5" {
		t.Fatalf("revived writer read %q, want v5", got)
	}
	// And its stream continues where it left off.
	m.write(0, 101, proto.Value("v6"))
	if got := m.read(1, 102); string(got) != "v6" {
		t.Fatalf("reader read %q after post-revival write, want v6", got)
	}
	if err := CheckGlobalInvariants([]*Proc{m.procs[0].(*Proc), m.procs[1].(*Proc), m.procs[2].(*Proc)}); err != nil {
		t.Fatalf("final invariants: %v", err)
	}
}

func TestProcReaderRevivedFromPeers(t *testing.T) {
	// A revived READER with an empty log (it was attached late, so nothing
	// replayed) must catch back up from the peers' backlog re-ship.
	const n = 3
	procs := make([]proto.Process, n)
	logs := make([]*storage.MemLog, n)
	for i := 0; i < n; i++ {
		p := New(i, n, 0)
		logs[i] = storage.NewMemLog()
		p.AttachStorage(logs[i])
		procs[i] = p
	}
	m := newDurableMesh(t, procs)
	for k := 1; k <= 4; k++ {
		m.write(0, proto.OpID(k), proto.Value(fmt.Sprintf("v%d", k)))
	}
	m.crash(2)
	fresh := New(2, n, 0)
	if err := fresh.Recover(storage.NewMemLog()); err != nil { // lost its disk entirely
		t.Fatalf("Recover: %v", err)
	}
	m.revive(2, fresh)
	if fresh.HistoryLen() != 5 {
		t.Fatalf("revived reader caught up to %d entries, want 5", fresh.HistoryLen())
	}
	if got := m.read(2, 100); string(got) != "v4" {
		t.Fatalf("revived reader read %q, want v4", got)
	}
}

func TestProcWALSkipSyncLosesEverything(t *testing.T) {
	p := New(0, 3, 0, WithFault(FaultWALSkipSync))
	log := storage.NewMemLog()
	p.AttachStorage(log)
	eff := p.StartWrite(1, proto.Value("doomed"))
	_ = eff
	if log.SyncedLen() != 0 {
		t.Fatalf("skip-sync mutant synced %d records", log.SyncedLen())
	}
	log.DropUnsynced() // crash
	fresh := New(0, 3, 0, WithFault(FaultWALSkipSync))
	if err := fresh.Recover(log); err != nil {
		t.Fatal(err)
	}
	if fresh.HistoryLen() != 1 {
		t.Fatalf("mutant recovered %d entries, want just v0", fresh.HistoryLen())
	}
}

func TestMWProcDurableRecovery(t *testing.T) {
	const n = 3
	procs := make([]proto.Process, n)
	logs := make([]*storage.MemLog, n)
	for i := 0; i < n; i++ {
		p := NewMWMR(i, n)
		logs[i] = storage.NewMemLog()
		p.AttachStorage(logs[i])
		procs[i] = p
	}
	m := newDurableMesh(t, procs)
	m.write(0, 1, proto.Value("a1"))
	m.write(1, 2, proto.Value("b1"))
	m.write(2, 3, proto.Value("c1"))
	m.write(0, 4, proto.Value("a2"))

	m.crash(1)
	logs[1].DropUnsynced()
	fresh := NewMWMR(1, n)
	if err := fresh.Recover(logs[1]); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	m.revive(1, fresh)

	mws := []*MWProc{m.procs[0].(*MWProc), m.procs[1].(*MWProc), m.procs[2].(*MWProc)}
	if err := CheckMWGlobalInvariants(mws); err != nil {
		t.Fatalf("post-revival invariants: %v", err)
	}
	// The revived writer continues its own stream and the register stays
	// linearizable enough for a smoke read: the last completed write wins.
	m.write(1, 10, proto.Value("b2"))
	if got := m.read(2, 11); string(got) != "b2" {
		t.Fatalf("read %q after revived writer's write, want b2", got)
	}
	if err := CheckMWGlobalInvariants(mws); err != nil {
		t.Fatalf("final invariants: %v", err)
	}
}

func TestRecoverRecordValidation(t *testing.T) {
	p := New(0, 3, 0)
	if err := p.RecoverRecord(storage.Record{Lane: 1, Index: 1, Val: proto.Value("x")}); err == nil {
		t.Fatal("foreign-lane record accepted")
	}
	if err := p.RecoverRecord(storage.Record{Lane: 0, Index: 2, Val: proto.Value("x")}); err == nil {
		t.Fatal("gapped record accepted")
	}
	if err := p.RecoverRecord(storage.Record{Lane: 0, Index: 1, Val: proto.Value("x")}); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	log := storage.NewMemLog()
	log.Append(storage.Record{Key: "k1", Lane: 0, Index: 2, Val: proto.Value("y")})
	if err := log.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := p.Recover(log); err == nil {
		t.Fatal("keyed record accepted by bare register")
	}

	mw := NewMWMR(0, 3)
	if err := mw.RecoverRecord(storage.Record{Lane: 3, Index: 1, Val: proto.Value("x")}); err == nil {
		t.Fatal("record for a lane past n accepted")
	}
	if err := mw.RecoverRecord(storage.Record{Lane: 2, Index: 1, Val: proto.Value("x")}); err != nil {
		t.Fatalf("valid lane record rejected: %v", err)
	}
}

func TestAttachStorageRejectsNonRecoverable(t *testing.T) {
	for name, p := range map[string]*Proc{
		"explicit-seqnums": New(0, 3, 0, WithExplicitSeqnums()),
		"history-gc":       New(0, 3, 0, WithHistoryGC()),
	} {
		if p.RecoveryEnabled() {
			t.Fatalf("%s reports RecoveryEnabled", name)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s AttachStorage did not panic", name)
				}
			}()
			p.AttachStorage(storage.NewMemLog())
		}()
	}
}
