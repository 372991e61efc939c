package core

import (
	"fmt"
	"testing"
	"time"

	"twobitreg/internal/proto"
)

// TestMWBatchedPaddingShipsCompactFrames pins the tentpole mechanism: a
// dominated writer's padding run crosses each link as ONE LaneCompact frame
// (head+tail summary) instead of one WRITE per padded index per round trip,
// and the padded write still wins last-writer-wins arbitration.
func TestMWBatchedPaddingShipsCompactFrames(t *testing.T) {
	t.Parallel()
	h := newMWHarness(t, 3)
	for k := 1; k <= 5; k++ {
		h.write(0, proto.OpID(k), val(fmt.Sprintf("busy-%d", k)))
		h.deliverAll()
		h.mustComplete(proto.OpID(k))
	}
	// Writer 1's first write pads its lane from 0 to the dominating index
	// 6. The run ships once the freshness quorum fills, so watch the wire
	// during delivery: batched, it must cross each link as compact frames.
	h.write(1, 100, val("late"))
	sawCompact := false
	for len(h.queue) > 0 {
		q := h.queue[0]
		h.queue = h.queue[1:]
		if c, ok := q.msg.(LaneCompactMsg); ok && q.from == 1 && c.Writer == 1 {
			sawCompact = true
			if c.Count < 2 {
				t.Fatalf("compact frame count = %d, want >= 2", c.Count)
			}
			if !c.Val.Equal(val("late")) {
				t.Fatalf("compact frame value = %q, want the padded value", c.Val)
			}
		}
		h.absorb(q.to, h.procs[q.to].Deliver(q.from, q.msg))
	}
	if !sawCompact {
		t.Fatal("the padding run never shipped as a LaneCompact frame")
	}
	h.mustComplete(100)
	if top := h.procs[1].LaneTop(1); top != 6 {
		t.Fatalf("writer 1's lane top = %d, want 6", top)
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

// TestMWBatchCensusTwoBitsPerEntry walks every message of a padding-heavy
// batched run and asserts the Theorem-2 census stays exact: lane frames
// carry exactly two control bits per logical entry plus their declared
// addressing/framing bits, and READ/PROCEED stay at two bits.
func TestMWBatchCensusTwoBitsPerEntry(t *testing.T) {
	t.Parallel()
	h := newMWHarness(t, 3)
	sawBatchedFrame := false
	walk := func(m proto.Message) {
		switch mm := m.(type) {
		case LaneMsg:
			if got := mm.ControlBits(); got != 2*mm.LogicalEntries()+mm.AddressingBits() {
				t.Fatalf("%s: %d control bits for %d entries + %d addressing", mm.TypeName(), got, mm.LogicalEntries(), mm.AddressingBits())
			}
		case LaneBatchMsg:
			sawBatchedFrame = true
			if got := mm.ControlBits(); got != 2*mm.LogicalEntries()+mm.AddressingBits() {
				t.Fatalf("%s: %d control bits for %d entries + %d addressing", mm.TypeName(), got, mm.LogicalEntries(), mm.AddressingBits())
			}
		case LaneCompactMsg:
			sawBatchedFrame = true
			if mm.LogicalEntries() != 2 {
				t.Fatalf("compact frame ships %d logical entries, want head+tail = 2", mm.LogicalEntries())
			}
			if got := mm.ControlBits(); got != 2*2+mm.AddressingBits() {
				t.Fatalf("%s: %d control bits, want 4 + %d addressing", mm.TypeName(), got, mm.AddressingBits())
			}
		case ReadMsg, ProceedMsg:
			if got := m.ControlBits(); got != 2 {
				t.Fatalf("%s control bits = %d, want 2", m.TypeName(), got)
			}
		default:
			t.Fatalf("unexpected message type %T on the multi-writer wire", m)
		}
	}
	drainWalking := func() {
		for len(h.queue) > 0 {
			q := h.queue[0]
			h.queue = h.queue[1:]
			walk(q.msg)
			h.absorb(q.to, h.procs[q.to].Deliver(q.from, q.msg))
		}
	}
	// Builds gaps: a busy writer, then dominated writers padding over them.
	for k := 1; k <= 4; k++ {
		h.write(0, proto.OpID(k), val(fmt.Sprintf("busy-%d", k)))
		drainWalking()
	}
	h.write(1, 10, val("late-1"))
	drainWalking()
	h.write(2, 11, val("late-2"))
	drainWalking()
	h.read(2, 12)
	drainWalking()
	if !sawBatchedFrame {
		t.Fatal("padding-heavy run never shipped a batched frame")
	}
	h.checkInvariants()
}

// TestMWTornBatchStallsDominatedWrite pins the mut-lane-batch mechanism: a
// torn batch (middle dropped, tail re-sequenced after the head) leaves
// every receiver's lane short of the index the writer shipped, so the
// dominated write's completion quorum can never fill — the padded-append
// window failure the crashwrite explorer strategy probes.
func TestMWTornBatchStallsDominatedWrite(t *testing.T) {
	t.Parallel()
	h := newMWHarness(t, 3, WithMWFault(MWFaultTornBatch))
	for k := 1; k <= 5; k++ {
		h.write(0, proto.OpID(k), val(fmt.Sprintf("busy-%d", k)))
		h.deliverAll()
		h.mustComplete(proto.OpID(k))
	}
	// Writer 1 pads 0 -> 6: a 6-entry compact frame, torn to head+tail at
	// every receiver, which therefore stop at index 2 while the writer
	// waits for a quorum at 6.
	h.write(1, 100, val("late"))
	h.deliverAll()
	for _, c := range h.done {
		if c.Op == 100 {
			t.Fatal("torn-batch write completed; the tear should have starved its quorum")
		}
	}
	if top := h.procs[0].LaneTop(1); top >= 6 {
		t.Fatalf("receiver's lane reached %d despite the tear", top)
	}
}

// TestLanePipelinedSendDedup pins the per-link exactly-once contract of
// pipelined lanes: shipping a backlog twice emits nothing new, and a send
// targeting an index ahead of the link's position fills the gap in order.
func TestLanePipelinedSendDedup(t *testing.T) {
	t.Parallel()
	l := NewLane(0, 3, nil, false)
	l.EnablePipelining()
	for i := 1; i <= 5; i++ {
		l.Append(val(fmt.Sprintf("v%d", i)))
	}
	var got []int
	emit := func(to, wsn int, m WriteMsg) {
		if to != 1 {
			t.Fatalf("emitted to %d, want 1", to)
		}
		if int(m.Bit) != wsn%2 {
			t.Fatalf("index %d shipped with parity %d", wsn, m.Bit)
		}
		got = append(got, wsn)
	}
	l.ShipBacklog(1, emit)
	l.ShipBacklog(1, emit) // dedup: nothing new
	if len(got) != 5 {
		t.Fatalf("shipped %v, want exactly 1..5 once", got)
	}
	for i, wsn := range got {
		if wsn != i+1 {
			t.Fatalf("shipped %v out of order", got)
		}
	}
	if l.Sent(1) != 5 || l.Sent(2) != 0 {
		t.Fatalf("sent tracking = (%d, %d), want (5, 0)", l.Sent(1), l.Sent(2))
	}
}

// TestMWBatcherSplitsOversizedRuns pins the frame-size safety of the
// coalescing emitter: a mixed-value run whose payload exceeds
// MaxBatchDataBytes must split into several frames (each encodable under
// the stream transports' frame cap), because pipelined send dedup means a
// frame rejected by the transport could never be re-shipped. Same-value
// padding runs ship one value however long they are, so they are exempt.
func TestMWBatcherSplitsOversizedRuns(t *testing.T) {
	t.Parallel()
	big := make(proto.Value, MaxBatchDataBytes/2+1)
	var b laneBatcher
	p := &MWProc{}
	for i := 0; i < 4; i++ {
		v := append(big[:len(big)-1:len(big)-1], byte(i)) // distinct values
		b.add(0, 1, i+1, v)
	}
	var eff proto.Effects
	b.flush(p, &eff)
	if len(eff.Sends) < 2 {
		t.Fatalf("an oversized mixed-value run shipped as %d frame(s)", len(eff.Sends))
	}
	total := 0
	for _, s := range eff.Sends {
		switch m := s.Msg.(type) {
		case LaneBatchMsg:
			if got := m.DataBytes(); got > MaxBatchDataBytes {
				t.Fatalf("batch frame carries %d bytes > MaxBatchDataBytes", got)
			}
			total += len(m.Vals)
		case LaneMsg:
			total++
		default:
			t.Fatalf("unexpected frame %T for a mixed-value run", s.Msg)
		}
	}
	if total != 4 {
		t.Fatalf("split run ships %d entries, want 4", total)
	}

	// Same-value runs stay one compact frame regardless of payload size.
	var b2 laneBatcher
	for i := 0; i < 4; i++ {
		b2.add(0, 1, i+1, big)
	}
	var eff2 proto.Effects
	b2.flush(p, &eff2)
	if len(eff2.Sends) != 1 {
		t.Fatalf("same-value run shipped as %d frames, want 1 compact frame", len(eff2.Sends))
	}
	if _, ok := eff2.Sends[0].Msg.(LaneCompactMsg); !ok {
		t.Fatalf("same-value run shipped as %T, want LaneCompactMsg", eff2.Sends[0].Msg)
	}

	// The byte cap never cuts a stretch either: in [a, b, b] with b over
	// half the budget, the frame ends before b's padding, not inside it
	// (a cut after [a, b] would hand a reader index 2 without index 3).
	var b3 laneBatcher
	a, bb := proto.Value("a"), append(big[:len(big)-1:len(big)-1], 'b')
	for i, v := range []proto.Value{a, bb, bb} {
		b3.add(0, 1, i+1, v)
	}
	var eff3 proto.Effects
	b3.flush(p, &eff3)
	shipped := 0
	for _, s := range eff3.Sends {
		switch m := s.Msg.(type) {
		case LaneMsg:
			shipped++
		case LaneBatchMsg:
			shipped += len(m.Vals)
		case LaneCompactMsg:
			shipped += m.Count
		}
		if shipped == 2 {
			t.Fatalf("[a, b, b] shipped as %d frames with one ending inside the b stretch", len(eff3.Sends))
		}
	}
	if shipped != 3 {
		t.Fatalf("[a, b, b] shipped %d entries, want 3", shipped)
	}
}

// TestMWLongCompactRunDrainsLinearly: with no count cap left, one compact
// frame can stand for a very long run, and the receiver parks every entry
// of it behind the line-11 guard before adopting them in one drain. Popping
// from the head keeps that linear in the run; shifting the reorder buffer
// down per pop, as it once did, costs O(C²) element moves — about 9·10⁹
// at this length, over 20 s on a 2-vCPU x86 host, where the linear drain
// takes under a tenth of a second. Every adopted index shares the run's one
// value, and the relay forwards the run as the one frame it arrived as.
func TestMWLongCompactRunDrainsLinearly(t *testing.T) {
	t.Parallel()
	const n, count = 3, 1 << 17
	p := NewMWMR(1, n)
	p.StartRead(1) // forward everywhere: p1 has an operation of its own
	start := time.Now()
	eff := p.Deliver(0, LaneCompactMsg{Writer: 0, Bit: 1, Count: count, Val: val("pad")})
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("draining a %d-entry compact frame took %v", count, took)
	}
	if top := p.LaneTop(0); top != count {
		t.Fatalf("adopted %d of %d entries", top, count)
	}
	// Each adopted index costs one reference to the run's value, as at the
	// writer (AppendRef), not a copy of it.
	if head, tail := p.LaneHistAt(0, 1), p.LaneHistAt(0, count); &head[0] != &tail[0] {
		t.Fatal("the run's entries hold copies of its value, not one shared value")
	}
	fwd := 0
	for _, s := range eff.Sends {
		if c, ok := s.Msg.(LaneCompactMsg); ok && c.Count == count {
			fwd++
		}
	}
	if fwd != n-1 {
		t.Fatalf("the run left in %d whole compact frames, want %d (one per peer)", fwd, n-1)
	}
}
