package core

import (
	"fmt"
	"testing"

	"twobitreg/internal/proto"
)

// harness routes effects between processes synchronously (FIFO per send
// order), which is enough for the deterministic unit tests below. Timing and
// reordering behaviour is exercised with the simulator in sim_test.go.
type harness struct {
	t     *testing.T
	procs []*Proc
	queue []queued
	done  []proto.Completion
}

type queued struct {
	from, to int
	msg      proto.Message
}

func newHarness(t *testing.T, n, writer int, opts ...Option) *harness {
	t.Helper()
	h := &harness{t: t}
	for i := 0; i < n; i++ {
		h.procs = append(h.procs, New(i, n, writer, opts...))
	}
	return h
}

func (h *harness) absorb(from int, eff proto.Effects) {
	for _, s := range eff.Sends {
		h.queue = append(h.queue, queued{from: from, to: s.To, msg: s.Msg})
	}
	h.done = append(h.done, eff.Done...)
}

// deliverAll drains the message queue in FIFO order.
func (h *harness) deliverAll() {
	for len(h.queue) > 0 {
		q := h.queue[0]
		h.queue = h.queue[1:]
		h.absorb(q.to, h.procs[q.to].Deliver(q.from, q.msg))
	}
}

func (h *harness) write(pid int, op proto.OpID, v proto.Value) {
	h.absorb(pid, h.procs[pid].StartWrite(op, v))
}

func (h *harness) read(pid int, op proto.OpID) {
	h.absorb(pid, h.procs[pid].StartRead(op))
}

func (h *harness) completed(op proto.OpID) (proto.Completion, bool) {
	for _, c := range h.done {
		if c.Op == op {
			return c, true
		}
	}
	return proto.Completion{}, false
}

func (h *harness) mustComplete(op proto.OpID) proto.Completion {
	h.t.Helper()
	c, ok := h.completed(op)
	if !ok {
		h.t.Fatalf("operation %d did not complete", op)
	}
	return c
}

func (h *harness) checkInvariants() {
	h.t.Helper()
	if err := CheckGlobalInvariants(h.procs); err != nil {
		h.t.Fatal(err)
	}
}

func val(s string) proto.Value { return proto.Value(s) }

func TestSingleProcessWriteRead(t *testing.T) {
	t.Parallel()
	h := newHarness(t, 1, 0)
	h.write(0, 1, val("x"))
	if c := h.mustComplete(1); c.Kind != proto.OpWrite {
		t.Fatalf("completion kind = %v, want write", c.Kind)
	}
	h.read(0, 2)
	if c := h.mustComplete(2); !c.Value.Equal(val("x")) {
		t.Fatalf("read = %q, want %q", c.Value, "x")
	}
}

func TestWriteCompletesAfterEchoQuorum(t *testing.T) {
	t.Parallel()
	h := newHarness(t, 3, 0)
	h.write(0, 1, val("v1"))
	if _, ok := h.completed(1); ok {
		t.Fatal("write completed before any echo arrived (n=3 needs quorum 2)")
	}
	h.deliverAll()
	h.mustComplete(1)
	h.checkInvariants()
	// All processes converge on the value.
	for i, p := range h.procs {
		if p.WSync(i) != 1 || !p.HistoryAt(1).Equal(val("v1")) {
			t.Fatalf("p%d did not adopt v1: wSync=%d", i, p.WSync(i))
		}
	}
}

func TestReadReturnsLatestWrite(t *testing.T) {
	t.Parallel()
	h := newHarness(t, 5, 0)
	for k := 1; k <= 3; k++ {
		h.write(0, proto.OpID(k), val(fmt.Sprintf("v%d", k)))
		h.deliverAll()
		h.mustComplete(proto.OpID(k))
	}
	h.read(2, 100)
	h.deliverAll()
	if c := h.mustComplete(100); !c.Value.Equal(val("v3")) {
		t.Fatalf("read = %q, want v3", c.Value)
	}
	h.checkInvariants()
}

// TestQuiescentReadWaitsOneRound: on a quiescent register a read waits one
// round trip, not two. At n = 3 the first PROCEED completes the freshness
// quorum (the reader and one peer), and the index or vector the reader then
// fixes is one a quorum already holds, so line 9 holds in the same step and
// the read completes there. Completion.Rounds still reports the annotated
// 2: phases entered, not rounds waited. Both the paper's single-writer
// register and the multi-writer one every served key runs behave so.
func TestQuiescentReadWaitsOneRound(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name  string
		procs []proto.Process
	}{
		{"swmr", []proto.Process{New(0, 3, 0), New(1, 3, 0), New(2, 3, 0)}},
		{"mwmr", []proto.Process{NewMWMR(0, 3), NewMWMR(1, 3), NewMWMR(2, 3)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var queue []queued
			step := func(from int, eff proto.Effects) []proto.Completion {
				for _, s := range eff.Sends {
					queue = append(queue, queued{from: from, to: s.To, msg: s.Msg})
				}
				return eff.Done
			}
			step(0, tc.procs[0].StartWrite(1, val("v")))
			for len(queue) > 0 {
				q := queue[0]
				queue = queue[1:]
				step(q.to, tc.procs[q.to].Deliver(q.from, q.msg))
			}
			step(1, tc.procs[1].StartRead(2))
			proceeds := 0
			for len(queue) > 0 {
				q := queue[0]
				queue = queue[1:]
				_, isProceed := q.msg.(ProceedMsg)
				if isProceed && q.to == 1 {
					proceeds++
				}
				for _, c := range step(q.to, tc.procs[q.to].Deliver(q.from, q.msg)) {
					if c.Op != 2 {
						continue
					}
					if !isProceed || q.to != 1 || proceeds != 1 {
						t.Fatalf("the read completed delivering %s to p%d after %d PROCEEDs, want on the first PROCEED", q.msg.TypeName(), q.to, proceeds)
					}
					if !c.Value.Equal(val("v")) || c.Rounds != 2 {
						t.Fatalf("read = %q in %d annotated rounds, want v in 2", c.Value, c.Rounds)
					}
					return
				}
			}
			t.Fatal("the read never completed")
		})
	}
}

func TestInitialValueRead(t *testing.T) {
	t.Parallel()
	h := newHarness(t, 3, 0, WithInitial(val("init")))
	h.read(1, 1)
	h.deliverAll()
	if c := h.mustComplete(1); !c.Value.Equal(val("init")) {
		t.Fatalf("read = %q, want initial value", c.Value)
	}
}

func TestNilInitialValueRead(t *testing.T) {
	t.Parallel()
	h := newHarness(t, 3, 0)
	h.read(1, 1)
	h.deliverAll()
	if c := h.mustComplete(1); c.Value != nil {
		t.Fatalf("read = %q, want nil initial value", c.Value)
	}
}

func TestWriterLocalReadFastPath(t *testing.T) {
	t.Parallel()
	h := newHarness(t, 3, 0)
	h.write(0, 1, val("a"))
	h.deliverAll()
	before := h.procs[0].MsgsSent()
	h.read(0, 2)
	if c := h.mustComplete(2); !c.Value.Equal(val("a")) {
		t.Fatalf("writer local read = %q, want a", c.Value)
	}
	if h.procs[0].MsgsSent() != before {
		t.Fatal("writer local read sent messages")
	}
}

// TestRuleR2CatchUp exercises Figure 1 line 16: a peer whose history lags by
// more than one value is sent exactly its next missing value. Channels are
// reliable, so the lagging peer's traffic is delayed, never dropped.
func TestRuleR2CatchUp(t *testing.T) {
	t.Parallel()
	h := newHarness(t, 3, 0)
	h.write(0, 1, val("v1"))
	// Hold back all traffic to/from p2 so it falls two values behind.
	var held []queued
	for len(h.queue) > 0 {
		q := h.queue[0]
		h.queue = h.queue[1:]
		if q.to == 2 || q.from == 2 {
			held = append(held, q)
			continue
		}
		h.absorb(q.to, h.procs[q.to].Deliver(q.from, q.msg))
	}
	h.mustComplete(1) // quorum {p0,p1} suffices
	h.write(0, 2, val("v2"))
	h.deliverAll() // p0<->p1 traffic
	h.mustComplete(2)
	// Release the delayed messages; rule R2 must bring p2 up to date.
	h.queue = append(h.queue, held...)
	h.deliverAll()

	// p2 starts two values behind; after the catch-up dance it must hold
	// the full history.
	if got := h.procs[2].WSync(2); got != 2 {
		t.Fatalf("p2 wSync = %d, want 2 after catch-up", got)
	}
	if !h.procs[2].HistoryAt(2).Equal(val("v2")) {
		t.Fatal("p2 did not learn v2")
	}
	h.checkInvariants()
}

// TestParityGuardReordersWrites delivers two consecutive WRITEs to a process
// in inverted order and checks the line-11 guard restores sending order.
func TestParityGuardReordersWrites(t *testing.T) {
	t.Parallel()
	p := New(2, 3, 0)
	var eff proto.Effects
	// p0 wrote v1 (bit 1) then — after p2's ack, normally — v2 (bit 0).
	// Simulate the network inverting them.
	eff = p.Deliver(0, WriteMsg{Bit: 0, Val: val("v2")})
	if len(eff.Sends) != 0 {
		t.Fatal("out-of-order WRITE was processed instead of buffered")
	}
	if p.WSync(2) != 0 {
		t.Fatal("out-of-order WRITE advanced state")
	}
	eff = p.Deliver(0, WriteMsg{Bit: 1, Val: val("v1")})
	// Both values must now be adopted, in order.
	if p.WSync(2) != 2 {
		t.Fatalf("wSync after reordered delivery = %d, want 2", p.WSync(2))
	}
	if !p.HistoryAt(1).Equal(val("v1")) || !p.HistoryAt(2).Equal(val("v2")) {
		t.Fatal("history order wrong after reordered delivery")
	}
	if p.MaxPendingDepth() != 1 {
		t.Fatalf("pending depth = %d, want 1", p.MaxPendingDepth())
	}
	_ = eff
}

func TestSequentialOpsEnforced(t *testing.T) {
	t.Parallel()
	h := newHarness(t, 3, 0)
	h.write(0, 1, val("x")) // still in flight: no deliveries yet
	assertPanics(t, func() { h.procs[0].StartWrite(2, val("y")) })
	assertPanics(t, func() { h.procs[0].StartRead(3) })
}

func TestNonWriterWritePanics(t *testing.T) {
	t.Parallel()
	h := newHarness(t, 3, 0)
	assertPanics(t, func() { h.procs[1].StartWrite(1, val("x")) })
}

func TestSelfDeliveryPanics(t *testing.T) {
	t.Parallel()
	p := New(0, 3, 0)
	assertPanics(t, func() { p.Deliver(0, ReadMsg{}) })
}

func TestForeignMessagePanics(t *testing.T) {
	t.Parallel()
	p := New(0, 3, 0)
	assertPanics(t, func() { p.Deliver(1, fakeMsg{}) })
}

type fakeMsg struct{}

func (fakeMsg) TypeName() string { return "FAKE" }
func (fakeMsg) ControlBits() int { return 0 }
func (fakeMsg) DataBytes() int   { return 0 }

func TestExplicitSeqnumAblationEquivalence(t *testing.T) {
	t.Parallel()
	plain := newHarness(t, 3, 0)
	oracle := newHarness(t, 3, 0, WithExplicitSeqnums())
	for k := 1; k <= 4; k++ {
		v := val(fmt.Sprintf("v%d", k))
		plain.write(0, proto.OpID(k), v)
		oracle.write(0, proto.OpID(k), v)
		plain.deliverAll()
		oracle.deliverAll()
	}
	for i := 0; i < 3; i++ {
		if plain.procs[i].WSync(i) != oracle.procs[i].WSync(i) {
			t.Fatalf("ablation diverged at p%d", i)
		}
	}
	// The oracle's messages must be strictly larger.
	m := WriteMsg{Bit: 1, Val: val("x"), Seq: 1}
	if m.ControlBits() <= (WriteMsg{Bit: 1, Val: val("x")}).ControlBits() {
		t.Fatal("explicit-seqnum message not larger than two-bit message")
	}
}

func TestControlBitsAreTwo(t *testing.T) {
	t.Parallel()
	msgs := []proto.Message{WriteMsg{Bit: 0, Val: val("abc")}, WriteMsg{Bit: 1}, ReadMsg{}, ProceedMsg{}}
	for _, m := range msgs {
		if m.ControlBits() != 2 {
			t.Fatalf("%s carries %d control bits, want 2", m.TypeName(), m.ControlBits())
		}
	}
	if (WriteMsg{Bit: 0, Val: val("abc")}).DataBytes() != 3 {
		t.Fatal("WriteMsg data bytes wrong")
	}
	if (ReadMsg{}).DataBytes() != 0 || (ProceedMsg{}).DataBytes() != 0 {
		t.Fatal("control messages must carry no data")
	}
}

func TestMessageTypeCensus(t *testing.T) {
	t.Parallel()
	names := map[string]bool{}
	for _, m := range []proto.Message{WriteMsg{Bit: 0}, WriteMsg{Bit: 1}, ReadMsg{}, ProceedMsg{}} {
		names[m.TypeName()] = true
	}
	if len(names) != 4 {
		t.Fatalf("distinct message types = %d, want exactly 4", len(names))
	}
}

func TestValidateRejectsBadArgs(t *testing.T) {
	t.Parallel()
	assertPanics(t, func() { New(-1, 3, 0) })
	assertPanics(t, func() { New(3, 3, 0) })
	assertPanics(t, func() { New(0, 3, 5) })
	assertPanics(t, func() { New(0, 0, 0) })
}

func TestQuorumArithmetic(t *testing.T) {
	t.Parallel()
	cases := []struct{ n, t, q int }{
		{1, 0, 1}, {2, 0, 2}, {3, 1, 2}, {4, 1, 3}, {5, 2, 3}, {10, 4, 6}, {11, 5, 6},
	}
	for _, c := range cases {
		if got := proto.MaxFaulty(c.n); got != c.t {
			t.Errorf("MaxFaulty(%d) = %d, want %d", c.n, got, c.t)
		}
		if got := proto.QuorumSize(c.n); got != c.q {
			t.Errorf("QuorumSize(%d) = %d, want %d", c.n, got, c.q)
		}
	}
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}
