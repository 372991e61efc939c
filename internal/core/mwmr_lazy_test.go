package core

import (
	"fmt"
	"testing"

	"twobitreg/internal/proto"
	"twobitreg/internal/storage"
)

// round delivers exactly the messages in flight when it is called — one
// link round under FIFO delivery — and returns how many there were.
func (h *mwHarness) round() int {
	k := len(h.queue)
	for i := 0; i < k; i++ {
		q := h.queue[0]
		h.queue = h.queue[1:]
		h.absorb(q.to, h.procs[q.to].Deliver(q.from, q.msg))
	}
	return k
}

// owedAnywhere sums LaneOwed over every lane of p toward peer j.
func owedAnywhere(p *MWProc, j int) int {
	owed := 0
	for w := 0; w < p.n; w++ {
		owed += p.LaneOwed(w, j)
	}
	return owed
}

// TestMWIdleProcessFirstOperation: a process that has only relayed so far
// pays nothing extra in time for its first operation. What it owed leaves in
// the step that sends its READ, what its peers owed it leaves in the step
// that delivers that READ — ahead of the PROCEED on the same link — so the
// operation completes in the same two link rounds as any other, and every
// link it touches is owed nothing as soon as the step that started watching
// it returns.
func TestMWIdleProcessFirstOperation(t *testing.T) {
	t.Parallel()
	const n, writes, reader = 5, 3, 3
	h := newMWHarness(t, n)
	for k := 1; k <= writes; k++ {
		h.write(0, proto.OpID(k), val(fmt.Sprintf("v%d", k)))
		h.deliverAll()
		h.mustComplete(proto.OpID(k))
	}
	// Only the writer has an operation: the four relays owe each other the
	// whole stream and have sent each other nothing.
	for i := 1; i < n; i++ {
		for j := 1; j < n; j++ {
			if i == j {
				continue
			}
			if h.procs[i].Serving(j) || h.procs[i].LaneOwed(0, j) != writes || h.procs[i].LaneSent(0, j) != 0 {
				t.Fatalf("relay p%d -> p%d before any READ: serving %v, owed %d, sent %d; want a lazy link owing %d",
					i, j, h.procs[i].Serving(j), h.procs[i].LaneOwed(0, j), h.procs[i].LaneSent(0, j), writes)
			}
		}
		if !h.procs[i].Serving(0) || h.procs[i].LaneOwed(0, 0) != 0 {
			t.Fatalf("relay p%d owes the writer %d indices (serving %v)", i, h.procs[i].LaneOwed(0, 0), h.procs[i].Serving(0))
		}
	}

	// The step that starts the read: READ to everyone, and the owed run to
	// the three relays (the writer was never owed anything).
	h.read(reader, 100)
	reads, runs := 0, 0
	for _, q := range h.queue {
		switch q.msg.(type) {
		case ReadMsg:
			reads++
		default:
			if q.to == 0 {
				t.Fatalf("the first operation re-sent %T to the lane's owner", q.msg)
			}
			runs++
		}
	}
	if reads != n-1 || runs != n-2 {
		t.Fatalf("the step that started the read sent %d READs and %d owed runs, want %d and %d", reads, runs, n-1, n-2)
	}
	for j := 0; j < n; j++ {
		if j != reader && owedAnywhere(h.procs[reader], j) != 0 {
			t.Fatalf("the reader still owes p%d %d indices after the step that sent its READ", j, owedAnywhere(h.procs[reader], j))
		}
	}

	// Round one: every peer learns the reader serves, ships what it owed,
	// and — the reader's own run arriving right behind its READ — answers.
	h.round()
	for j := 0; j < n; j++ {
		if j == reader {
			continue
		}
		if !h.procs[j].Serving(reader) || owedAnywhere(h.procs[j], reader) != 0 {
			t.Fatalf("p%d after the reader's READ: serving %v, owes %d", j, h.procs[j].Serving(reader), owedAnywhere(h.procs[j], reader))
		}
	}
	// Round two: the runs and the PROCEEDs arrive; the read is done.
	h.round()
	if c := h.mustComplete(100); !c.Value.Equal(val(fmt.Sprintf("v%d", writes))) || c.Rounds != 2 {
		t.Fatalf("first read = %q in %d protocol rounds, want the last write in 2", c.Value, c.Rounds)
	}
	if len(h.queue) != 0 {
		t.Fatalf("%d messages still in flight after the read's two link rounds", len(h.queue))
	}
	// The relays among themselves are as lazy as before.
	if h.procs[1].LaneOwed(0, 2) != writes || h.procs[2].LaneOwed(0, 1) != writes {
		t.Fatalf("a third party's read made p1 <-> p2 eager: owed %d and %d", h.procs[1].LaneOwed(0, 2), h.procs[2].LaneOwed(0, 1))
	}
	h.checkInvariants()
}

// TestMWLazyLinkOwesAtMostOneFrame drives lanes far past the 255 entries a
// one-byte count once capped a frame at, while two processes only relay,
// with long padded runs in the stream. While both ends only relay, the link
// between them carries no frame at all, however much it owes: no frame
// size forces a run out early. p3's first READ then empties each direction
// with one frame per lane — what a link owes ships in one frame per
// MaxBatchDataBytes of encoded values, never cut inside a stretch — no
// frame on it ends inside a run the sender adopted in one step, and the
// read still finds the last write.
func TestMWLazyLinkOwesAtMostOneFrame(t *testing.T) {
	t.Parallel()
	const n, burst, bursts = 4, 100, 7
	h := newMWHarness(t, n)
	// tops[i][w] holds every value lane w's top had at relay i when a step
	// returned; cum[i][j][w] counts the entries i shipped to j on lane w.
	tops := map[[2]int]map[int]bool{}
	cum := map[[3]int]int{}
	frames := map[[3]int]int{}
	for _, i := range []int{2, 3} {
		for _, w := range []int{0, 1} {
			tops[[2]int{i, w}] = map[int]bool{0: true}
		}
	}
	// deliver takes the k oldest messages in flight off the queue.
	deliver := func(k int) {
		for ; k > 0; k-- {
			q := h.queue[0]
			h.queue = h.queue[1:]
			if q.from >= 2 && q.to >= 2 {
				w, entries := -1, 0
				switch m := q.msg.(type) {
				case LaneMsg:
					w, entries = m.Writer, 1
				case LaneBatchMsg:
					w, entries = m.Writer, len(m.Vals)
				case LaneCompactMsg:
					w, entries = m.Writer, m.Count
				}
				if w >= 0 {
					frames[[3]int{q.from, q.to, w}]++
					key := [3]int{q.from, q.to, w}
					cum[key] += entries
					if !tops[[2]int{q.from, w}][cum[key]] {
						t.Fatalf("lane %d frame p%d -> p%d ends at index %d, inside a run p%d adopted in one step", w, q.from, q.to, cum[key], q.from)
					}
				}
			}
			h.absorb(q.to, h.procs[q.to].Deliver(q.from, q.msg))
			if q.to >= 2 {
				for _, w := range []int{0, 1} {
					tops[[2]int{q.to, w}][h.procs[q.to].LaneTop(w)] = true
				}
			}
			h.checkInvariants()
		}
	}
	pump := func() {
		for len(h.queue) > 0 {
			deliver(1)
		}
	}
	// p0 and p1 take turns writing a burst each: the first write of a turn
	// pads its lane over the other's whole burst.
	op := proto.OpID(0)
	for b := 0; b < bursts; b++ {
		for k := 0; k < burst; k++ {
			op++
			h.write(b%2, op, val(fmt.Sprintf("w%d", op)))
			pump()
			h.mustComplete(op)
		}
	}
	indices := h.procs[2].LaneTop(0)
	if indices < 2*255 {
		t.Fatalf("lane 0 reached only index %d, want past two one-byte counts' worth", indices)
	}
	if len(frames) != 0 {
		t.Fatalf("the relays exchanged lane frames %v while neither had an operation", frames)
	}
	for _, i := range []int{2, 3} {
		for _, w := range []int{0, 1} {
			if owed, top := h.procs[i].LaneOwed(w, 5-i), h.procs[i].LaneTop(w); owed != top {
				t.Fatalf("p%d owes p%d %d of lane %d's %d indices, want all of them", i, 5-i, owed, w, top)
			}
		}
	}

	// p3's first operation empties both directions in its first link round,
	// one frame per lane each way: the owed values fit one budget.
	op++
	h.read(3, op)
	deliver(len(h.queue))
	if owedAnywhere(h.procs[3], 2) != 0 || owedAnywhere(h.procs[2], 3) != 0 {
		t.Fatalf("after p3's READ reached p2 they still owe each other %d and %d", owedAnywhere(h.procs[3], 2), owedAnywhere(h.procs[2], 3))
	}
	pump()
	for _, link := range [][2]int{{2, 3}, {3, 2}} {
		for _, w := range []int{0, 1} {
			if got := frames[[3]int{link[0], link[1], w}]; got != 1 {
				t.Fatalf("lane %d: p%d -> p%d shipped its owed run in %d frames, want 1", w, link[0], link[1], got)
			}
		}
	}
	if c := h.mustComplete(op); !c.Value.Equal(val(fmt.Sprintf("w%d", op-1))) {
		t.Fatalf("read after %d writes = %q, want the last one", op-1, c.Value)
	}
}

// TestMWPeerRestartedLeavesLinkEager: a link reset forgets who was waiting
// on the link — the READ that said so went to, or came from, an incarnation
// that is gone — so both ends forward on it from then on, while links that
// saw no restart stay as lazy as they were.
func TestMWPeerRestartedLeavesLinkEager(t *testing.T) {
	t.Parallel()
	const n, victim = 5, 4
	procs := make([]proto.Process, n)
	logs := make([]*storage.FileWAL, n)
	for i := range procs {
		p := NewMWMR(i, n)
		logs[i] = storage.NewMemLog()
		p.AttachStorage(logs[i])
		procs[i] = p
	}
	m := newDurableMesh(t, procs)
	mw := func(i int) *MWProc { return m.procs[i].(*MWProc) }
	m.write(0, 1, val("a"))
	m.write(0, 2, val("b"))
	if mw(2).Serving(victim) || mw(victim).Serving(2) || mw(2).LaneOwed(0, victim) != 2 || mw(victim).LaneOwed(0, 2) != 2 {
		t.Fatal("the relays p2 and p4 are not lazy toward each other before the restart")
	}

	m.crash(victim)
	if err := logs[victim].Reopen(); err != nil {
		t.Fatal(err)
	}
	fresh := NewMWMR(victim, n)
	if err := fresh.Recover(logs[victim]); err != nil {
		t.Fatal(err)
	}
	m.revive(victim, fresh)
	for j := 0; j < n-1; j++ {
		if !fresh.Serving(j) || !mw(j).Serving(victim) {
			t.Fatalf("after the restart: p%d serving at the revived process %v, the revived process serving at p%d %v; want both",
				j, fresh.Serving(j), j, mw(j).Serving(victim))
		}
		if fresh.LaneOwed(0, j) != 0 || mw(j).LaneOwed(0, victim) != 0 {
			t.Fatalf("after the restart p%d and the revived process owe each other %d and %d", j, mw(j).LaneOwed(0, victim), fresh.LaneOwed(0, j))
		}
	}
	if fresh.Serving(victim) {
		t.Fatal("the revived process counts itself serving before it has started an operation")
	}

	// The next write is echoed on the reset links at once, in both
	// directions, and still owed between the relays that saw no restart.
	m.write(0, 3, val("c"))
	for _, j := range []int{1, 2, 3} {
		if got := mw(j).LaneSent(0, victim); got != 3 {
			t.Fatalf("p%d has sent the revived process %d of 3 indices", j, got)
		}
		if got := fresh.LaneSent(0, j); got != 3 {
			t.Fatalf("the revived process has sent p%d %d of 3 indices", j, got)
		}
	}
	if mw(2).LaneSent(0, 3) != 0 || mw(2).LaneOwed(0, 3) != 3 {
		t.Fatalf("p2 -> p3 saw no restart yet sent %d and owes %d", mw(2).LaneSent(0, 3), mw(2).LaneOwed(0, 3))
	}
	if err := CheckMWGlobalInvariants([]*MWProc{mw(0), mw(1), mw(2), mw(3), mw(4)}); err != nil {
		t.Fatal(err)
	}
}

// TestMWColdReadStallsReader pins the mut-lane-coldread mechanism: relays
// that do not mark a reader serving go on owing it the indices it waits for
// at line 9, so a read whose quorum needs one of them never completes.
func TestMWColdReadStallsReader(t *testing.T) {
	t.Parallel()
	h := newMWHarness(t, 5, WithMWFault(MWFaultColdRead))
	// p1 holds p0's write and will pin its index; of the quorum that must
	// echo it, only p0 and p1 itself ever do.
	h.write(0, 2, val("x"))
	h.deliverAll()
	h.mustComplete(2)
	h.read(1, 1)
	h.deliverAll()
	for _, c := range h.done {
		if c.Op == 1 {
			t.Fatal("the cold read completed; the relays should have owed it its quorum")
		}
	}
	if h.procs[2].Serving(1) || h.procs[2].LaneSent(0, 1) != 0 {
		t.Fatalf("relay p2 toward the reader: serving %v, sent %d; want the index withheld", h.procs[2].Serving(1), h.procs[2].LaneSent(0, 1))
	}
}

// TestMWRecoveredRegisterWatchesEveryLink: a register that comes back from
// its log has forgotten who was waiting on it, so none of its links is lazy
// — not even the one to a peer that is down when it revives and never gets
// a PeerRestarted. What it holds for that peer is pacing's to withhold (no
// frame into the void, no owed run for laneInvariants to bound) until the
// peer's own restart resets the link and re-ships it.
func TestMWRecoveredRegisterWatchesEveryLink(t *testing.T) {
	t.Parallel()
	const n, writes = 5, 3
	procs := make([]proto.Process, n)
	logs := make([]*storage.FileWAL, n)
	for i := range procs {
		p := NewMWMR(i, n)
		logs[i] = storage.NewMemLog()
		p.AttachStorage(logs[i])
		procs[i] = p
	}
	m := newDurableMesh(t, procs)
	for k := 1; k <= writes; k++ {
		m.write(0, proto.OpID(k), val(fmt.Sprintf("v%d", k)))
	}
	m.crash(4) // stays down while p3 restarts
	m.crash(3)
	if err := logs[3].Reopen(); err != nil {
		t.Fatal(err)
	}
	fresh := NewMWMR(3, n)
	if err := fresh.Recover(logs[3]); err != nil {
		t.Fatal(err)
	}
	if fresh.LaneTop(0) != writes {
		t.Fatalf("recovered %d of %d indices", fresh.LaneTop(0), writes)
	}
	for j := 0; j < n; j++ {
		if j != 3 && !fresh.Serving(j) {
			t.Fatalf("the recovered register treats its link to p%d as lazy", j)
		}
	}
	// revive skips nobody, so drive the restart protocol by hand for the
	// three live peers only.
	m.down[3] = false
	m.procs[3] = fresh
	for j := 0; j < 3; j++ {
		m.route(3, fresh.PeerRestarted(j))
		m.route(j, m.procs[j].(*MWProc).PeerRestarted(3))
	}
	m.pump()
	m.write(0, 10, val("after"))
	if got := fresh.LaneSent(0, 4); got != 0 {
		t.Fatalf("the revived process sent %d indices to a peer that is down", got)
	}
	mws := make([]*MWProc, n)
	for i := range mws {
		mws[i] = m.procs[i].(*MWProc)
	}
	if err := CheckMWGlobalInvariants(mws); err != nil {
		t.Fatal(err)
	}
}
