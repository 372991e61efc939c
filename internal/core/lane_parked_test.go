package core

import (
	"testing"
)

// parkedOnLanes sums the reorder buffers of every lane of p.
func parkedOnLanes(p *MWProc) int {
	parked := 0
	for _, l := range p.lanes {
		parked += l.Parked()
	}
	return parked
}

// TestLaneParkedCountTracksReorderBuffer pins the count MWProc.drain skips
// idle lanes on: it rises with Enqueue, falls with every pop, and is zero
// after ResetLink — always the sum of the per-peer buffer depths.
func TestLaneParkedCountTracksReorderBuffer(t *testing.T) {
	t.Parallel()
	for _, pipelined := range []bool{false, true} {
		l := NewLane(1, 3, nil, false)
		if pipelined {
			l.EnablePipelining()
		}
		emit := func(int, int, WriteMsg) {}
		check := func(when string, want int) {
			t.Helper()
			if got := l.Parked(); got != want || got != l.PendingDepth(0)+l.PendingDepth(2) {
				t.Fatalf("pipelined=%v, %s: parked = %d (buffers hold %d), want %d",
					pipelined, when, got, l.PendingDepth(0)+l.PendingDepth(2), want)
			}
		}
		// Index 2 (bit 0) overtakes index 1 (bit 1) on the link from p0.
		l.Enqueue(0, WriteMsg{Bit: 0, Val: val("v2")})
		check("after the early WRITE", 1)
		if l.Drain(emit) {
			t.Fatal("a WRITE behind the parity guard was processed")
		}
		check("after a drain that could not move", 1)
		l.Enqueue(0, WriteMsg{Bit: 1, Val: val("v1")})
		check("after the late WRITE", 2)
		if !l.Drain(emit) || l.Top() != 2 {
			t.Fatalf("drain after the unblocking WRITE left top = %d, want 2", l.Top())
		}
		check("after the releasing drain", 0)

		l.Enqueue(0, WriteMsg{Bit: 0, Val: val("v4")})
		l.Enqueue(2, WriteMsg{Bit: 0, Val: val("v4")})
		check("with one parked per peer", 2)
		l.ResetLink(0)
		check("after ResetLink(0)", 1)
		l.ResetLink(2)
		check("after ResetLink(2)", 0)
	}
}

// TestMWParkedWriteReleasedByLaterDelivery: the multi-writer drain visits
// only lanes with something parked, so a WRITE stuck behind the parity
// guard must still leave when a later delivery on the same link unblocks
// it — that delivery parks on the same lane, which is what makes the lane
// visible to the drain again. Nothing may stay parked at quiescence.
func TestMWParkedWriteReleasedByLaterDelivery(t *testing.T) {
	t.Parallel()
	// The register's lanes assume FIFO links, so the reordering is injected
	// by hand; the parity guard and the parked count are the same code on
	// strict lanes, which do see reordering.
	h := newMWHarness(t, 3)
	p1 := h.procs[1]

	early := LaneMsg{Writer: 0, M: WriteMsg{Bit: 0, Val: val("v2")}}
	late := LaneMsg{Writer: 0, M: WriteMsg{Bit: 1, Val: val("v1")}}
	if eff := p1.Deliver(0, early); len(eff.Sends) != 0 {
		t.Fatalf("an out-of-order lane WRITE produced %d sends", len(eff.Sends))
	}
	if got := parkedOnLanes(p1); got != 1 || p1.LaneTop(0) != 0 {
		t.Fatalf("after the early WRITE: parked = %d, lane top = %d, want 1 and 0", got, p1.LaneTop(0))
	}
	// Traffic that parks nothing (a freshness request) must not disturb it.
	h.absorb(1, p1.Deliver(2, ReadMsg{}))
	if got := parkedOnLanes(p1); got != 1 {
		t.Fatalf("an unrelated delivery changed the parked count to %d", got)
	}
	h.absorb(1, p1.Deliver(0, late))
	if got := parkedOnLanes(p1); got != 0 || p1.LaneTop(0) != 2 {
		t.Fatalf("after the unblocking WRITE: parked = %d, lane top = %d, want 0 and 2", got, p1.LaneTop(0))
	}
	if !p1.LaneHistAt(0, 1).Equal(val("v1")) || !p1.LaneHistAt(0, 2).Equal(val("v2")) {
		t.Fatal("reordered WRITEs were adopted out of order")
	}
}
