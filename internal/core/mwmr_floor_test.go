package core

import (
	"fmt"
	"testing"

	"twobitreg/internal/proto"
)

// TestMWWriteFramesAtFloor pins the batched register's write cost at its
// algorithmic floor under FIFO delivery to quiescence: every write costs
// exactly 2(n-1) freshness frames plus ONE lane frame per ordered pair of
// processes of which at least one can be waiting on it —
//
//	2(n-1) + n(n-1) - c(c-1),  c = members with no operation of their own
//
// — whether the write is a lone index or a padded run, and whichever writer
// mix produced the padding. A relay that adopts a run forwards it as the one
// frame it arrived as (Lane.forwardRun), to the lane's owner, to every
// process that has sent it a READ, and to everyone once it has an operation
// itself; between two members that serve no client the run is owed, not
// sent (Lane.lazy).
//
// c = 0 — every process has read once — is the all-to-all echo of Figure 1:
// 10 / 28 / 54 frames at n = 3 / 5 / 7, the same numbers as before links
// could be lazy, which is the proof that nothing moved for a cluster whose
// every member serves. The idle=c cases leave the c highest pids without an
// operation, for every c up to n-1 (only the writer serves): at n = 7 a
// write costs 24, 34, 42, 48, 52, 54, 54 frames with 1..7 serving members.
//
// The census rides along: two control bits per logical entry on every lane
// frame, and every (lane, link) someone waits on carried each index exactly
// once — a link's entries are consecutive from 1 (the receiver reconstructs
// indices by counting), so "as many entries as the sender's top" is
// exactly-once — while a lazy link carried nothing and owes the sender's top.
func TestMWWriteFramesAtFloor(t *testing.T) {
	t.Parallel()
	type mix struct {
		name string
		idle int
		// writer picks the k-th write's invoker among the first s processes.
		writer func(k, s int) int
	}
	// Round-robin over every serving process: each write pads over the s-1
	// writes issued since the writer's last one.
	balanced := func(k, s int) int { return k % s }
	// 10:1 skew: ten consecutive (hence unpadded) writes by p0, then one by
	// a cold writer padding over all ten.
	skew10 := func(k, s int) int {
		if k%11 < 10 {
			return 0
		}
		return 1 + (k/11)%(s-1)
	}
	for _, n := range []int{3, 5, 7} {
		mixes := []mix{{"balanced", 0, balanced}, {"skew10", 0, skew10}}
		for c := 1; c < n; c++ {
			mixes = append(mixes, mix{fmt.Sprintf("idle=%d", c), c, balanced})
		}
		for _, mix := range mixes {
			n, mix := n, mix
			t.Run(fmt.Sprintf("n=%d/%s", n, mix.name), func(t *testing.T) {
				t.Parallel()
				h := newMWHarness(t, n)
				c, s := mix.idle, n-mix.idle
				floor := 2*(n-1) + n*(n-1) - c*(c-1)
				// Every serving member reads once, so everyone knows it serves.
				for i := 0; i < s; i++ {
					h.read(i, proto.OpID(1000+i))
					h.deliverAll()
					h.mustComplete(proto.OpID(1000 + i))
				}
				// entries[w][i][j]: lane w entries shipped on link i -> j.
				entries := make([][][]int, n)
				for w := range entries {
					entries[w] = make([][]int, n)
					for i := range entries[w] {
						entries[w][i] = make([]int, n)
					}
				}
				padded, lone := 0, 0
				for k := 0; k < 6*11; k++ {
					w := mix.writer(k, s)
					op := proto.OpID(k + 1)
					before := h.procs[w].LaneTop(w)
					h.write(w, op, val(fmt.Sprintf("w%d-%d", w, k)))
					frames := 0
					for len(h.queue) > 0 {
						q := h.queue[0]
						h.queue = h.queue[1:]
						frames++
						switch m := q.msg.(type) {
						case LaneMsg:
							entries[m.Writer][q.from][q.to]++
							censusTwoBits(t, m, 1)
						case LaneBatchMsg:
							entries[m.Writer][q.from][q.to] += len(m.Vals)
							censusTwoBits(t, m, len(m.Vals))
						case LaneCompactMsg:
							entries[m.Writer][q.from][q.to] += m.Count
							censusTwoBits(t, m, 2) // head + tail
						case ReadMsg, ProceedMsg:
							if got := q.msg.ControlBits(); got != 2 {
								t.Fatalf("%s carries %d control bits, want 2", q.msg.TypeName(), got)
							}
						default:
							t.Fatalf("unexpected %T on the wire", q.msg)
						}
						h.absorb(q.to, h.procs[q.to].Deliver(q.from, q.msg))
					}
					h.mustComplete(op)
					for _, p := range h.procs {
						if parked := parkedOnLanes(p); parked != 0 {
							t.Fatalf("write %d: %d WRITEs still parked at p%d at quiescence", k, parked, p.ID())
						}
					}
					if frames != floor {
						t.Fatalf("write %d by p%d (lane %d -> %d) cost %d frames, want the floor 2(n-1) + n(n-1) - c(c-1) = %d",
							k, w, before, h.procs[w].LaneTop(w), frames, floor)
					}
					if h.procs[w].LaneTop(w)-before > 1 {
						padded++
					} else {
						lone++
					}
				}
				if lone == 0 || (padded == 0 && s > 1) {
					t.Fatalf("mix exercised %d padded and %d unpadded writes, want both", padded, lone)
				}
				for w := 0; w < s; w++ {
					for i := 0; i < n; i++ {
						top := h.procs[i].LaneTop(w)
						for j := 0; j < n; j++ {
							if i == j {
								continue
							}
							sent, owed := top, 0
							if i >= s && j >= s {
								sent, owed = 0, top // nobody waits on this link
							}
							if got := entries[w][i][j]; got != sent {
								t.Fatalf("lane %d link %d->%d carried %d entries, want %d of %d indices", w, i, j, got, sent, top)
							}
							if got := h.procs[i].LaneSent(w, j); got != sent {
								t.Fatalf("lane %d link %d->%d: sent cursor %d, want %d (top %d)", w, i, j, got, sent, top)
							}
							if got := h.procs[i].LaneOwed(w, j); got != owed {
								t.Fatalf("lane %d link %d->%d owes %d indices, want %d (top %d)", w, i, j, got, owed, top)
							}
						}
					}
				}
				h.checkInvariants()
			})
		}
	}
}

// censusTwoBits asserts a lane frame's control bits are exactly two per
// logical entry plus its declared addressing/framing bits.
func censusTwoBits(t *testing.T, m interface {
	proto.Message
	LogicalEntries() int
	AddressingBits() int
}, entries int) {
	t.Helper()
	if m.LogicalEntries() != entries {
		t.Fatalf("%s ships %d logical entries, want %d", m.TypeName(), m.LogicalEntries(), entries)
	}
	if got, want := m.ControlBits(), 2*entries+m.AddressingBits(); got != want {
		t.Fatalf("%s: %d control bits for %d entries + %d addressing, want %d",
			m.TypeName(), got, entries, m.AddressingBits(), want)
	}
}
