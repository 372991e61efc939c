package core

import (
	"fmt"
	"testing"

	"twobitreg/internal/proto"
)

// TestMWRejoinCatchUpReplaysCompactReAnchor pins the rejoin path the ROADMAP
// used to flag as a residual — and now its fix: when a crash-frozen peer
// comes back into contact, the Rule-R2 backlog ship no longer REPLAYS the
// real mixed-value history (one logical entry per historical value, O(gap)
// shipped values). The relay knows the backlog is a dominated prefix of a
// quorum-stable top, so it re-anchors: every gap index carries the top
// value, the batcher renders the whole catch-up as ONE LaneCompactMsg, and
// the rejoiner converges in O(1) shipped values — O(n) total work for the
// rejoin instead of O(n * gap) bytes.
//
// Scenario (the shape a crashwrite schedule produces): p2 reads once — so
// its peers forward to it rather than owe it — and freezes before writer
// 0's stream starts; p0's frames toward it are lost, p1's relay forward for
// index 1 is delayed in flight. Five writes by p0 complete on
// the {p0,p1} majority. When p2 thaws, the delayed index-1 frame arrives,
// p2 adopts it and echoes — and p1, seeing p2 lag by a whole backlog that
// is stable at a quorum, re-anchors indices 2..5 with one compact frame.
//
// The second input freezes p2 through 300 writes: a gap wider than the 255
// entries a one-byte count could carry, which used to fall back to a mixed
// replay over several frames. It re-anchors in one compact frame too.
func TestMWRejoinCatchUpReplaysCompactReAnchor(t *testing.T) {
	t.Parallel()
	for _, writes := range []int{5, 300} {
		t.Run(fmt.Sprint("writes=", writes), func(t *testing.T) {
			t.Parallel()
			testRejoinReAnchor(t, writes)
		})
	}
}

func testRejoinReAnchor(t *testing.T, writes int) {
	const n = 3
	h := &mwHarness{t: t}
	for i := 0; i < n; i++ {
		h.procs = append(h.procs, NewMWMR(i, n))
	}

	// Custom delivery: messages to the frozen p2 from p0 are dropped (lost
	// in its crash window), p1's are parked in flight; everything else
	// flows.
	var parked []queued
	pump := func() {
		for len(h.queue) > 0 {
			q := h.queue[0]
			h.queue = h.queue[1:]
			if q.to == 2 {
				if q.from == 1 {
					parked = append(parked, q)
				}
				continue // p0 -> p2 lost
			}
			h.absorb(q.to, h.procs[q.to].Deliver(q.from, q.msg))
		}
	}

	h.read(2, proto.OpID(100))
	h.deliverAll()
	h.mustComplete(proto.OpID(100))

	for k := 1; k <= writes; k++ {
		h.write(0, proto.OpID(k), val(fmt.Sprintf("v%d", k)))
		pump()
		h.mustComplete(proto.OpID(k))
	}
	if top := h.procs[1].LaneTop(0); top != writes {
		t.Fatalf("relay p1 holds %d values, want %d", top, writes)
	}

	// Thaw: the delayed relay frame for index 1 arrives at p2.
	var idx1 queued
	found := false
	for _, q := range parked {
		if m, ok := q.msg.(LaneMsg); ok && m.Writer == 0 {
			idx1, found = q, true
			break
		}
	}
	if !found {
		t.Fatalf("no relay lane frame was in flight toward the frozen peer (parked: %d msgs)", len(parked))
	}
	h.absorb(2, h.procs[2].Deliver(idx1.from, idx1.msg))

	// p2's adoption echo reaches p1; p1 must answer with the R2 backlog —
	// as ONE LaneCompact re-anchor carrying a single value (the stable
	// top), NOT a mixed-value LaneBatch replay of the whole history.
	sawCompact := false
	for len(h.queue) > 0 {
		q := h.queue[0]
		h.queue = h.queue[1:]
		if c, ok := q.msg.(LaneCompactMsg); ok && q.from == 1 && q.to == 2 && c.Writer == 0 {
			sawCompact = true
			if c.Count != writes-1 {
				t.Fatalf("re-anchor covers %d entries, want the %d-index gap", c.Count, writes-1)
			}
			if want := val(fmt.Sprintf("v%d", writes)); !c.Val.Equal(want) {
				t.Fatalf("re-anchor carries %q, want the stable top %q", c.Val, want)
			}
			// The O(n)-rejoin bound: one value shipped however long the
			// backlog, where the old replay shipped one per gap index.
			if got, want := c.DataBytes(), len(c.Val); got != want {
				t.Fatalf("re-anchor ships %d payload bytes, want the single-value %d", got, want)
			}
		}
		if b, ok := q.msg.(LaneBatchMsg); ok && q.to == 2 && b.Writer == 0 {
			t.Fatalf("rejoin catch-up shipped a mixed-value LaneBatch replay %v — the re-anchor regressed to O(gap) values", b.Vals)
		}
		h.absorb(q.to, h.procs[q.to].Deliver(q.from, q.msg))
	}
	if !sawCompact {
		t.Fatal("the rejoin catch-up never shipped a LaneCompact re-anchor")
	}
	if top := h.procs[2].LaneTop(0); top != writes {
		t.Fatalf("rejoined peer converged to %d values, want %d", top, writes)
	}
	if got := h.procs[2].LaneWSync(0, 2); got != writes {
		t.Fatalf("rejoined peer's own knowledge = %d, want %d", got, writes)
	}
	// The re-anchored entries really are copies of the stable top — the
	// relaxed Lemma 4 shape (a dominated prefix of the owner's history).
	for x := 2; x <= writes; x++ {
		if want := val(fmt.Sprintf("v%d", writes)); !h.procs[2].LaneHistAt(0, x).Equal(want) {
			t.Fatalf("rejoined peer history[%d] = %q, want the re-anchored top %q", x, h.procs[2].LaneHistAt(0, x), want)
		}
	}
	// And the cluster still satisfies every (relaxed) proof invariant.
	if err := CheckMWGlobalInvariants(h.procs); err != nil {
		t.Fatalf("post-rejoin invariants: %v", err)
	}
}
