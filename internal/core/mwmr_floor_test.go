package core

import (
	"fmt"
	"testing"

	"twobitreg/internal/proto"
)

// TestMWWriteFramesAtFloor pins the batched register's write cost at its
// algorithmic floor under FIFO delivery to quiescence: every write costs
// exactly 2(n-1) freshness frames plus ONE lane frame per ordered pair of
// processes — n(n-1), the all-to-all echo of Figure 1 and not a frame more —
// whether the write is a lone index or a padded run, and whichever writer
// mix produced the padding. A relay that adopts a run forwards it as the one
// frame it arrived as (Lane.forwardRun); before, it forwarded the head and
// answered the tail one echo later on every relay-to-relay link.
//
// The census rides along: two control bits per logical entry on every lane
// frame, and every (lane, link) carried each index exactly once — a link's
// entries are consecutive from 1 (the receiver reconstructs indices by
// counting), so "as many entries as the sender's top" is exactly-once.
func TestMWWriteFramesAtFloor(t *testing.T) {
	t.Parallel()
	mixes := []struct {
		name string
		// writer picks the k-th write's invoker.
		writer func(k, n int) int
	}{
		// Round-robin over every process: each write pads over the n-1
		// writes issued since the writer's last one.
		{"balanced", func(k, n int) int { return k % n }},
		// 10:1 skew: ten consecutive (hence unpadded) writes by p0, then one
		// by a cold writer padding over all ten.
		{"skew10", func(k, n int) int {
			if k%11 < 10 {
				return 0
			}
			return 1 + (k/11)%(n-1)
		}},
	}
	for _, n := range []int{3, 5, 7} {
		for _, mix := range mixes {
			n, mix := n, mix
			t.Run(fmt.Sprintf("n=%d/%s", n, mix.name), func(t *testing.T) {
				t.Parallel()
				h := newMWHarness(t, n)
				floor := 2*(n-1) + n*(n-1)
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
					w := mix.writer(k, n)
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
						t.Fatalf("write %d by p%d (lane %d -> %d) cost %d frames, want the floor 2(n-1) + n(n-1) = %d",
							k, w, before, h.procs[w].LaneTop(w), frames, floor)
					}
					if h.procs[w].LaneTop(w)-before > 1 {
						padded++
					} else {
						lone++
					}
				}
				if padded == 0 || lone == 0 {
					t.Fatalf("mix exercised %d padded and %d unpadded writes, want both", padded, lone)
				}
				for w := 0; w < n; w++ {
					for i := 0; i < n; i++ {
						top := h.procs[i].LaneTop(w)
						for j := 0; j < n; j++ {
							if i == j {
								continue
							}
							if got := entries[w][i][j]; got != top {
								t.Fatalf("lane %d link %d->%d carried %d entries for %d indices", w, i, j, got, top)
							}
							if got := h.procs[i].LaneSent(w, j); got != top {
								t.Fatalf("lane %d link %d->%d: sent cursor %d, top %d", w, i, j, got, top)
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
