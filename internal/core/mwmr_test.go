package core

import (
	"fmt"
	"math/rand"
	"testing"

	"twobitreg/internal/proto"
	"twobitreg/internal/sim"
	"twobitreg/internal/transport"
)

// mwHarness routes effects between MWProc processes synchronously in FIFO
// order, mirroring the SWMR harness in core_test.go.
type mwHarness struct {
	t     *testing.T
	procs []*MWProc
	queue []queued
	done  []proto.Completion
}

func newMWHarness(t *testing.T, n int, opts ...MWOption) *mwHarness {
	t.Helper()
	h := &mwHarness{t: t}
	for i := 0; i < n; i++ {
		h.procs = append(h.procs, NewMWMR(i, n, opts...))
	}
	return h
}

func (h *mwHarness) absorb(from int, eff proto.Effects) {
	for _, s := range eff.Sends {
		h.queue = append(h.queue, queued{from: from, to: s.To, msg: s.Msg})
	}
	h.done = append(h.done, eff.Done...)
}

func (h *mwHarness) deliverAll() {
	for len(h.queue) > 0 {
		q := h.queue[0]
		h.queue = h.queue[1:]
		h.absorb(q.to, h.procs[q.to].Deliver(q.from, q.msg))
	}
}

func (h *mwHarness) write(pid int, op proto.OpID, v proto.Value) {
	h.absorb(pid, h.procs[pid].StartWrite(op, v))
}

func (h *mwHarness) read(pid int, op proto.OpID) {
	h.absorb(pid, h.procs[pid].StartRead(op))
}

func (h *mwHarness) mustComplete(op proto.OpID) proto.Completion {
	h.t.Helper()
	for _, c := range h.done {
		if c.Op == op {
			return c
		}
	}
	h.t.Fatalf("operation %d did not complete", op)
	return proto.Completion{}
}

func (h *mwHarness) checkInvariants() {
	h.t.Helper()
	if err := CheckMWGlobalInvariants(h.procs); err != nil {
		h.t.Fatal(err)
	}
}

func TestMWSingleProcessWriteRead(t *testing.T) {
	t.Parallel()
	h := newMWHarness(t, 1)
	h.write(0, 1, val("x"))
	if c := h.mustComplete(1); c.Kind != proto.OpWrite {
		t.Fatalf("completion kind = %v, want write", c.Kind)
	}
	h.read(0, 2)
	if c := h.mustComplete(2); !c.Value.Equal(val("x")) {
		t.Fatalf("read = %q, want %q", c.Value, "x")
	}
}

func TestMWReadInitialValue(t *testing.T) {
	t.Parallel()
	h := newMWHarness(t, 3)
	h.read(1, 1)
	h.deliverAll()
	if c := h.mustComplete(1); c.Value != nil {
		t.Fatalf("read = %q, want the nil initial value", c.Value)
	}
	h.checkInvariants()
}

// TestMWEveryProcessMayWrite: writes through each process in turn, each read
// back by every other process.
func TestMWEveryProcessMayWrite(t *testing.T) {
	t.Parallel()
	h := newMWHarness(t, 3)
	op := proto.OpID(0)
	for w := 0; w < 3; w++ {
		op++
		v := val(fmt.Sprintf("from-%d", w))
		h.write(w, op, v)
		h.deliverAll()
		h.mustComplete(op)
		for r := 0; r < 3; r++ {
			op++
			h.read(r, op)
			h.deliverAll()
			if c := h.mustComplete(op); !c.Value.Equal(v) {
				t.Fatalf("read %d via p%d after p%d's write = %q, want %q", op, r, w, c.Value, v)
			}
		}
		h.checkInvariants()
	}
}

// TestMWDominationPadding is the heart of the two-bit timestamp construction:
// after a busy writer pushes its lane index far ahead, a write by a writer
// whose own lane is short must still win last-writer-wins arbitration — by
// padding its lane up to a dominating index.
func TestMWDominationPadding(t *testing.T) {
	t.Parallel()
	h := newMWHarness(t, 3)
	for k := 1; k <= 5; k++ {
		h.write(0, proto.OpID(k), val(fmt.Sprintf("busy-%d", k)))
		h.deliverAll()
		h.mustComplete(proto.OpID(k))
	}
	// Writer 1's first write: its own lane is at 0, writer 0's at 5. The
	// new value must land at index 6 on lane 1 and win (6,1) > (5,0).
	h.write(1, 100, val("late"))
	h.deliverAll()
	h.mustComplete(100)
	if top := h.procs[1].LaneTop(1); top != 6 {
		t.Fatalf("writer 1's lane top = %d, want 6 (padded past writer 0's index 5)", top)
	}
	for r := 0; r < 3; r++ {
		h.read(r, proto.OpID(200+r))
		h.deliverAll()
		if c := h.mustComplete(proto.OpID(200 + r)); !c.Value.Equal(val("late")) {
			t.Fatalf("read via p%d = %q, want the late writer's value", r, c.Value)
		}
	}
	h.checkInvariants()
}

// TestMWSkipWriteSyncLosesDomination pins the mutant's mechanism: without
// the freshness phase the late writer appends at its own index 1, whose key
// (1,1) loses to the busy writer's (5,0), so readers keep serving the stale
// value — the write is lost.
func TestMWSkipWriteSyncLosesDomination(t *testing.T) {
	t.Parallel()
	h := newMWHarness(t, 3, WithMWFault(MWFaultSkipWriteSync))
	for k := 1; k <= 5; k++ {
		h.write(0, proto.OpID(k), val(fmt.Sprintf("busy-%d", k)))
		h.deliverAll()
	}
	h.write(1, 100, val("late"))
	h.deliverAll()
	h.mustComplete(100)
	h.read(2, 200)
	h.deliverAll()
	if c := h.mustComplete(200); !c.Value.Equal(val("busy-5")) {
		t.Fatalf("mutant read = %q, want the stale busy-5 (the lost-write bug)", c.Value)
	}
}

func TestMWSequentialOpsEnforced(t *testing.T) {
	t.Parallel()
	p := NewMWMR(0, 3)
	p.StartWrite(1, val("a"))
	defer func() {
		if recover() == nil {
			t.Fatal("second op during an in-flight write did not panic")
		}
	}()
	p.StartRead(2)
}

func TestMWForeignMessagePanics(t *testing.T) {
	t.Parallel()
	p := NewMWMR(0, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("foreign message did not panic")
		}
	}()
	p.Deliver(1, fakeMsg{})
}

// TestMWControlBitsCensus: lane WRITEs carry exactly two protocol bits per
// entry plus the one-byte writer id (and, batched, the one-byte count); READ
// and PROCEED stay at two bits. The reader here has no operation before its
// read, so what the relays owed it arrives as batched frames — those are
// walked entry by entry like any other.
func TestMWControlBitsCensus(t *testing.T) {
	t.Parallel()
	seen := map[string]bool{}
	walk := func(m proto.Message) {
		seen[m.TypeName()] = true
		switch mm := m.(type) {
		case LaneMsg:
			censusTwoBits(t, mm, 1)
			if got := m.ControlBits(); got != 2+WriterIDBits {
				t.Fatalf("%s control bits = %d, want %d", m.TypeName(), got, 2+WriterIDBits)
			}
		case LaneBatchMsg:
			censusTwoBits(t, mm, len(mm.Vals))
			if got := m.ControlBits(); got != 2*len(mm.Vals)+WriterIDBits+BatchLenBits {
				t.Fatalf("%s control bits = %d for %d entries, want 2 each + %d", m.TypeName(), got, len(mm.Vals), WriterIDBits+BatchLenBits)
			}
		case LaneCompactMsg:
			censusTwoBits(t, mm, 2) // head + tail
		case ReadMsg, ProceedMsg:
			if got := m.ControlBits(); got != 2 {
				t.Fatalf("%s control bits = %d, want 2", m.TypeName(), got)
			}
		default:
			t.Fatalf("unexpected message type %T on the multi-writer wire", m)
		}
	}
	// At n = 3 the owed run's top is already known at a quorum when it
	// ships, so it travels re-anchored (WRITEC); at n = 5 it is not, and
	// travels as the values it holds (WRITEB).
	for _, n := range []int{3, 5} {
		h2 := newMWHarness(t, n)
		drainWalking := func() {
			for len(h2.queue) > 0 {
				q := h2.queue[0]
				h2.queue = h2.queue[1:]
				walk(q.msg)
				h2.absorb(q.to, h2.procs[q.to].Deliver(q.from, q.msg))
			}
		}
		h2.write(1, 1, val("v"))
		drainWalking()
		h2.write(1, 2, val("w")) // second index, opposite parity
		drainWalking()
		h2.read(2, 3) // the reader's first operation: it and the idle relays ship each other the owed run
		drainWalking()
		h2.mustComplete(3)
	}
	for _, want := range []string{"WRITE0", "WRITE1", "WRITEB", "WRITEC", "READ", "PROCEED"} {
		if !seen[want] {
			t.Fatalf("message census %v never saw %s", seen, want)
		}
	}
}

// TestMWSimRandomSchedulesInvariantsAndLiveness drives the multi-writer
// register under seeded random delays with continuous per-lane invariant
// checking, concurrent writers, and a reader on every process.
func TestMWSimRandomSchedulesInvariantsAndLiveness(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 8; seed++ {
		n := 4
		sched := sim.New(seed)
		procs := make([]*MWProc, n)
		ps := make([]proto.Process, n)
		for i := 0; i < n; i++ {
			procs[i] = NewMWMR(i, n)
			ps[i] = procs[i]
		}
		done := map[proto.OpID]proto.Completion{}
		net := transport.NewSimNet(sched, ps,
			transport.WithDelay(transport.UniformDelay(0.1, 2.0)),
			transport.WithCompletion(func(_ int, c proto.Completion, _ float64) {
				done[c.Op] = c
			}),
			transport.WithPostDelivery(func() {
				if err := CheckMWGlobalInvariants(procs); err != nil {
					t.Fatalf("seed %d: invariant violated at t=%v: %v", seed, sched.Now(), err)
				}
			}),
		)
		rng := rand.New(rand.NewSource(seed))
		var op proto.OpID
		tm := 0.0
		for k := 0; k < 12; k++ {
			op++
			pid := rng.Intn(n)
			tm += 40 + 40*rng.Float64()
			if rng.Float64() < 0.5 {
				net.StartWriteAt(tm, pid, op, val(fmt.Sprintf("s%d-v%d", seed, k)))
			} else {
				net.StartReadAt(tm, pid, op)
			}
		}
		net.Run()
		for id := proto.OpID(1); id <= op; id++ {
			if _, ok := done[id]; !ok {
				t.Fatalf("seed %d: operation %d never completed", seed, id)
			}
		}
	}
}

// TestMWCrashMinorityLiveness: with a crashed minority (including a writer
// that just completed a write), the survivors keep completing operations and
// reads reflect the last completed write.
func TestMWCrashMinorityLiveness(t *testing.T) {
	t.Parallel()
	n := 5
	sched := sim.New(7)
	procs := make([]*MWProc, n)
	ps := make([]proto.Process, n)
	for i := 0; i < n; i++ {
		procs[i] = NewMWMR(i, n)
		ps[i] = procs[i]
	}
	done := map[proto.OpID]proto.Completion{}
	net := transport.NewSimNet(sched, ps,
		transport.WithDelay(transport.UniformDelay(0.2, 1.5)),
		transport.WithCompletion(func(_ int, c proto.Completion, _ float64) {
			done[c.Op] = c
		}),
	)
	net.StartWriteAt(1, 1, 1, val("w1"))
	net.StartWriteAt(60, 2, 2, val("w2"))
	net.CrashAt(120, 2) // the most recent writer dies after completing
	net.CrashAt(120, 4)
	net.StartReadAt(180, 0, 3)
	net.StartReadAt(180, 3, 4)
	net.Run()
	for id := proto.OpID(1); id <= 4; id++ {
		if _, ok := done[id]; !ok {
			t.Fatalf("operation %d never completed despite a minority crash", id)
		}
	}
	for _, id := range []proto.OpID{3, 4} {
		if got := done[id].Value; !got.Equal(val("w2")) {
			t.Fatalf("read %d = %q, want the crashed writer's completed w2", id, got)
		}
	}
}
