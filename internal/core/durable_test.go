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

// TestProcReaderRevivedFromPeers: a revived READER of the multi-writer
// register with an empty log (it lost its disk entirely, so nothing
// replays) must catch back up from the peers' backlog re-ship.
func TestProcReaderRevivedFromPeers(t *testing.T) {
	const n = 3
	procs := make([]proto.Process, n)
	for i := 0; i < n; i++ {
		p := NewMWMR(i, n)
		p.AttachStorage(storage.NewMemLog())
		procs[i] = p
	}
	m := newDurableMesh(t, procs)
	for k := 1; k <= 4; k++ {
		m.write(0, proto.OpID(k), proto.Value(fmt.Sprintf("v%d", k)))
	}
	m.crash(2)
	fresh := NewMWMR(2, n)
	if err := fresh.Recover(storage.NewMemLog()); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	m.revive(2, fresh)
	if got := fresh.LaneTop(0); got != 4 {
		t.Fatalf("revived reader caught up to index %d of the writer's lane, want 4", got)
	}
	if got := m.read(2, 100); string(got) != "v4" {
		t.Fatalf("revived reader read %q, want v4", got)
	}
}

// TestProcWALSkipSyncLosesEverything pins the mut-wal-skipsync fault on the
// served register: the write completes with its records logged but never
// synced, so the crash empties the log and the revived writer recovers
// nothing while its peers hold its stream.
func TestProcWALSkipSyncLosesEverything(t *testing.T) {
	const n = 3
	procs := make([]proto.Process, n)
	log := storage.NewMemLog()
	for i := 0; i < n; i++ {
		var p *MWProc
		if i == 0 {
			p = NewMWMR(i, n, WithMWFault(MWFaultWALSkipSync))
			p.AttachStorage(log)
		} else {
			p = NewMWMR(i, n)
			p.AttachStorage(storage.NewMemLog())
		}
		procs[i] = p
	}
	m := newDurableMesh(t, procs)
	m.write(0, 1, proto.Value("doomed"))
	synced := 0
	if err := log.Replay(func(storage.Record) error { synced++; return nil }); err != nil {
		t.Fatal(err)
	}
	if synced != 0 {
		t.Fatalf("skip-sync mutant synced %d records", synced)
	}
	m.crash(0)
	if err := log.Reopen(); err != nil {
		t.Fatal(err)
	}
	fresh := NewMWMR(0, n, WithMWFault(MWFaultWALSkipSync))
	if err := fresh.Recover(log); err != nil {
		t.Fatal(err)
	}
	if got := fresh.LaneTop(0); got != 0 {
		t.Fatalf("mutant recovered its lane to index %d, want just v0", got)
	}
	if got := procs[1].(*MWProc).LaneTop(0); got != 1 {
		t.Fatalf("peer holds index %d of the writer's lane, want 1", got)
	}
}

func TestMWProcDurableRecovery(t *testing.T) {
	const n = 3
	procs := make([]proto.Process, n)
	logs := make([]*storage.FileWAL, n)
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
	if err := logs[1].Reopen(); err != nil {
		t.Fatal(err)
	}
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
	mw := NewMWMR(0, 3)
	if err := mw.RecoverRecord(storage.Record{Lane: 3, Index: 1, Val: proto.Value("x")}); err == nil {
		t.Fatal("record for a lane past n accepted")
	}
	if err := mw.RecoverRecord(storage.Record{Lane: 2, Index: 2, Val: proto.Value("x")}); err == nil {
		t.Fatal("gapped record accepted")
	}
	if err := mw.RecoverRecord(storage.Record{Lane: 2, Index: 1, Val: proto.Value("x")}); err != nil {
		t.Fatalf("valid lane record rejected: %v", err)
	}
	log := storage.NewMemLog()
	log.Append(storage.Record{Key: "k1", Lane: 2, Index: 2, Val: proto.Value("y")})
	if err := log.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := mw.Recover(log); err == nil {
		t.Fatal("keyed record accepted by bare register")
	}
}
