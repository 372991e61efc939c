package core

import (
	"fmt"

	"twobitreg/internal/proto"
	"twobitreg/internal/storage"
)

// This file implements twobit-mwmr, a multi-writer multi-reader extension of
// the paper's register built from per-writer alternating-bit lanes.
//
// The paper's algorithm is inherently single-writer: the alternating-bit
// discipline assumes one value source per stream. The extension keeps that
// assumption per stream by giving every process its own lane — an
// independent instance of the SWMR propagation protocol (Lane) whose owner
// is the only process appending to it. Values flood lane-by-lane exactly as
// in Figure 1; a message carries the two protocol control bits plus the lane
// owner's id (addressing, accounted honestly in LaneMsg.ControlBits, the
// same way regmap accounts its multiplexing key).
//
// Writes are arbitrated by (index, writer-id) last-writer-wins order over
// lane indices — the timestamp construction of Attiya–Bar-Noy–Dolev, made
// two-bit-compatible in two steps:
//
//  1. A freshness phase replaces ABD's timestamp query: the writer
//     broadcasts READ() and waits for n-t PROCEEDs, each of which is sent
//     only once the responder knows the writer has caught up, on EVERY lane,
//     to what the responder held when the request arrived (the line-19/20
//     guard generalized to a per-writer w_sync vector). By quorum
//     intersection the writer's local lane tops then dominate every write
//     that completed before this one was invoked — without any sequence
//     number crossing the wire.
//  2. Lane indices must stay consecutive for the alternating bit, so the
//     writer cannot jump its index to 1+max directly; instead it appends the
//     new value at EVERY index from its current top up to the dominating
//     one. The extra entries all carry the same client value; they are the
//     message-cost price of two-bit timestamps. Reads are unaffected only
//     if no reader ever fixes its vector on an intermediate entry — the
//     value would then be readable at a timestamp below the write's own —
//     so a process must adopt the whole run in one step (a batched frame).
//
// Sent one alternating-bit round trip at a time, padded entries would cost
// a write whose lane lags by g O(g) flood rounds — O(m) with m balanced
// writers and unbounded under writer skew — and would publish the run one
// index at a time, which is not atomic (a read can pin an intermediate
// index). Batching bounds it: lanes run pipelined (Lane.EnablePipelining),
// the writer ships each peer its whole backlog in one link round, and the
// coalescing emitter (laneBatcher) packs consecutive-index runs into
// LaneBatchMsg frames (2 control bits per entry) or, for the same-value
// padding runs, LaneCompactMsg frames (head+tail summary re-anchoring the
// alternating bit — the lane-compaction rule). Receivers unpack both
// through the same parity-gated reorder buffer, so the protocol logic is
// untouched; only the framing changes — and a relay forwards a run it
// adopted in one drain as one run (Lane.forwardRun), so it reaches every
// process whole. Write cost becomes independent of the padding gap: the
// writer sends O(n) frames per write and the whole flood settles in exactly
// n(n-1) frames — the SWMR register's own flood cost — regardless of skew.
//
// Reads generalize Figure 1's lines 5-10 with the same per-writer vector:
// the freshness phase (lines 5-7), then fixing a vector sn of lane tops
// (line 8), then waiting until n-t processes are known to hold sn on every
// lane (line 9), then returning the value of the lane maximizing
// (sn[u], u) — last-writer-wins (line 10).
type MWProc struct {
	id, n int
	opts  mwOptions

	// lanes[w] carries p_w's value stream, one lane per process;
	// lanes[id] is this process's own. Who may write is the harness's
	// admission rule (regmap's writer sets): a process that never writes
	// leaves its lane empty, which costs no frame.
	lanes []*Lane

	// rSync[j] counts PROCEED() messages received from p_j; rSync[id]
	// counts this process's own freshness rounds (reads and writes both
	// run one).
	rSync []int

	// pendingSyncs holds freshness requests parked on the generalized
	// line-20 guard: for every lane u, w_sync_u[from] >= sn[u].
	pendingSyncs []pendingSync

	// serving marks the processes that have an operation of their own on
	// this register, as far as this incarnation knows: serving[j] — p_j has
	// sent this process a READ; serving[id] — this process has started an
	// operation. Monotone, never cooled (nothing on a two-bit wire says "my
	// operation is over"). The pipelined lanes share the slice and forward
	// adopted indices only where it says someone waits (Lane.lazy); serve
	// ships what a link was owed in the step that sets its flag.
	serving []bool

	// cur is the in-flight client operation; processes are sequential.
	cur *mwOp

	// batcher coalesces consecutive-index lane emissions per link into
	// LaneBatch/LaneCompact frames.
	batcher laneBatcher

	// snFree recycles per-lane index vectors: every READ delivery captures
	// one (line 19 analog) and every read fixes one (line 8 analog), so the
	// hot path would otherwise allocate a vector per freshness message.
	snFree [][]int

	// sends is the Effects.Sends scratch reused across steps (see the
	// proto.Effects contract: callers consume Sends before re-entering).
	sends []proto.Send

	msgsSent int

	// store, when attached, receives every lane append (own writes and
	// adopted peer values alike) and is synced at the end of every dirty
	// drain, before the step's outbound frames release (see durable.go).
	store storage.StableStorage
	dirty bool
}

type pendingSync struct {
	from int
	sn   []int // per-lane tops captured when the READ arrived (line 19)
}

type mwPhase uint8

const (
	mwWriteSync      mwPhase = iota + 1 // write freshness round (lines 5-7 analog)
	mwWritePropagate                    // line-3 analog on the own lane
	mwReadSync                          // line-7 analog
	mwReadWait                          // line-9 analog over the vector
)

type mwOp struct {
	op    proto.OpID
	kind  proto.OpKind
	phase mwPhase
	val   proto.Value // write: the value being written
	rsn   int         // freshness round number (line 5 analog)
	wsn   int         // write: the dominating top being propagated
	sn    []int       // read: per-lane indices fixed at the line-8 analog
}

// mwOptions configures an MWProc.
type mwOptions struct {
	fault MWFault
}

// MWOption configures the multi-writer register.
type MWOption func(*mwOptions)

// MWFault selects a deliberately broken variant of the multi-writer
// register, for mutation-testing the detection machinery. The zero value is
// the correct protocol.
type MWFault uint8

const (
	// MWFaultNone runs the protocol unmodified.
	MWFaultNone MWFault = iota
	// MWFaultSkipWriteSync skips the write's freshness phase: the writer
	// appends at its own next index without first dominating the other
	// lanes. A writer whose own stream is short then publishes a value
	// whose (index, writer-id) key orders BEFORE already-completed writes
	// of a busier writer, so readers serve the busier writer's value and
	// the new write is lost — a real-time order violation the cluster
	// checker must catch under genuinely concurrent writer streams.
	MWFaultSkipWriteSync
	// MWFaultTornBatch tears batched lane frames on the receive side: a
	// frame representing three or more consecutive entries materializes
	// only its head and tail (with consecutive parities), silently dropping
	// the middle — torn padding. The receiver's lane then runs short of the
	// index the writer believes it shipped, so freshness-round domination
	// and write-completion quorums are computed against streams that do not
	// exist; the explorer must catch it (as a stalled write or a
	// last-writer-wins misordering) under multi-writer schedules whose
	// padding gaps produce batches of three or more.
	MWFaultTornBatch
	// MWFaultRunResend breaks the exactly-once-per-link contract of
	// run-scoped forwarding (Lane.forwardRun): a relay forwards a run's
	// second index to the peers of its first without advancing sent[], so
	// that index crosses the link twice — again in the same frame when the
	// run goes on (send fills in from the stale cursor), or on the peer's
	// echo of the head (Rule R2 re-ships it) when the run ends there. The
	// receiver counts the duplicate as a fresh index: its view of the relay
	// overtakes what the relay holds (conservation, Lemma 2), or it adopts
	// a repeated value as the lane's next entry. Needs padded runs, i.e.
	// concurrent writer streams.
	MWFaultRunResend
	// MWFaultColdRead breaks the rule that turns a lazy link eager: a READ
	// does not mark its sender serving, so a relay with no operation of its
	// own goes on owing the reader every index it adopts. The reader then
	// sits in its line-9 wait on echoes nobody sends — a stalled read, as
	// soon as fewer than a quorum of processes serve the register. Needs
	// processes that never invoke an operation (Schedule.Clients).
	MWFaultColdRead
	// MWFaultWALSkipSync breaks the durability contract of a
	// storage-attached process (AttachStorage): lane appends are still
	// logged, but the Sync that must precede every outbound attestation —
	// the write's own acknowledgement and the echoes that fill peers'
	// quorums — is skipped, so nothing ever becomes durable. A crash then
	// loses every acknowledged write: the revived process recovers empty
	// lanes while its peers hold its stream, the lost-acknowledged-write
	// violation the crashrestart adversary must catch (mut-wal-skipsync).
	MWFaultWALSkipSync
	// MWFaultSplitRun is the one-byte count's cut at a bound of two:
	// laneBatcher.flush ends every frame after two entries, inside a padded
	// write's stretch too. A read fixing its vector between the frames pins
	// an intermediate index, which can order the value before a write it
	// overwrote (mut-lane-splitrun).
	MWFaultSplitRun
)

// WithMWFault builds the broken variant f. Mutation testing only.
func WithMWFault(f MWFault) MWOption { return func(o *mwOptions) { o.fault = f } }

// NewMWMR returns the multi-writer two-bit process with index id of n. Every
// process owns a lane and may write.
func NewMWMR(id, n int, opts ...MWOption) *MWProc {
	proto.Validate(id, n, 0)
	var o mwOptions
	for _, op := range opts {
		op(&o)
	}
	p := &MWProc{
		id:      id,
		n:       n,
		opts:    o,
		lanes:   make([]*Lane, n),
		rSync:   make([]int, n),
		serving: make([]bool, n),
	}
	for w := range p.lanes {
		p.lanes[w] = NewLane(id, n, nil, false)
		p.lanes[w].EnablePipelining()
		p.lanes[w].ForwardWhereServed(w, p.serving)
		p.lanes[w].resendRuns = o.fault == MWFaultRunResend
	}
	return p
}

// MWMRAlgorithm returns a proto.Algorithm building multi-writer two-bit
// processes. The writer argument of New is ignored: every process may write.
func MWMRAlgorithm(opts ...MWOption) proto.Algorithm { return mwAlgorithm{opts: opts} }

type mwAlgorithm struct{ opts []MWOption }

func (mwAlgorithm) Name() string { return "twobit-mwmr" }

func (a mwAlgorithm) New(id, n, _ int) proto.Process { return NewMWMR(id, n, a.opts...) }

// ID implements proto.Process.
func (p *MWProc) ID() int { return p.id }

func (p *MWProc) quorum() int { return proto.QuorumSize(p.n) }

// emitLane returns the emit callback for lane w's WRITEs: each lands in the
// coalescing batcher, and drain flushes the accumulated runs as
// LaneMsg/LaneBatchMsg/LaneCompactMsg frames tagged with the lane id.
func (p *MWProc) emitLane(w int) emitFn {
	return func(to, wsn int, m WriteMsg) {
		p.batcher.add(w, to, wsn, m.Val)
	}
}

// laneBatcher coalesces consecutive-index lane emissions into per-link
// runs. Because pipelined lanes ship each link's indices strictly
// consecutively, all emissions for one (lane, peer) pair within one drain
// form a single run; flush renders each run as the smallest honest frames —
// a lone LaneMsg, a same-value LaneCompactMsg (head+tail padding summary),
// or a mixed-value LaneBatchMsg — cut only between stretches of equal
// values.
type laneBatcher struct {
	runs []batchRun
	// free recycles the runs' value slices across flushes; the values
	// themselves are immutable and ship by reference, only the slice
	// headers and backing arrays are reused.
	free [][]proto.Value
}

type batchRun struct {
	w, to int
	start int // stream index of vals[0]
	vals  []proto.Value
}

func (b *laneBatcher) add(w, to, wsn int, val proto.Value) {
	for i := len(b.runs) - 1; i >= 0; i-- {
		r := &b.runs[i]
		if r.w == w && r.to == to {
			if r.start+len(r.vals) == wsn {
				r.vals = append(r.vals, val)
				return
			}
			break // discontinuity: open a fresh run after it
		}
	}
	b.runs = append(b.runs, batchRun{w: w, to: to, start: wsn, vals: b.newVals(val)})
}

// newVals returns a recycled (or fresh) one-element value slice.
func (b *laneBatcher) newVals(val proto.Value) []proto.Value {
	if k := len(b.free); k > 0 {
		vals := b.free[k-1][:0]
		b.free = b.free[:k-1]
		return append(vals, val)
	}
	return append(make([]proto.Value, 0, 8), val)
}

// flush renders and clears the accumulated runs, in emission order. A run
// is cut only between stretches (maximal sequences of equal values): a
// padded write is one stretch, so every process adopts it from one frame in
// one step (see the file comment), while a cut between two stretches is
// just two writes arriving in order. A chunk ends where the next stretch
// would push it past MaxBatchDataBytes encoded — pipelined send dedup never
// re-ships a frame the transport refused — and a stretch too big for a
// batch ships alone, compact, up to MaxFrameEntries.
func (b *laneBatcher) flush(p *MWProc, eff *proto.Effects) {
	for ri := range b.runs {
		r := &b.runs[ri]
		for off := 0; off < len(r.vals); {
			end, stretches := chunkEnd(r.vals, off, p.opts.fault == MWFaultSplitRun)
			chunk := r.vals[off:end]
			start := r.start + off
			off = end
			bit := uint8(start % 2)
			switch {
			case len(chunk) == 1:
				eff.AddSend(r.to, LaneMsg{Writer: r.w, M: WriteMsg{Bit: bit, Val: chunk[0]}})
			case stretches == 1:
				eff.AddSend(r.to, LaneCompactMsg{Writer: r.w, Bit: bit, Count: len(chunk), Val: chunk[0]})
			default:
				vals := make([]proto.Value, len(chunk))
				copy(vals, chunk)
				eff.AddSend(r.to, LaneBatchMsg{Writer: r.w, Bit: bit, Vals: vals})
			}
			p.msgsSent++
		}
		// Recycle the run's slice; LaneBatchMsg took its own copy and the
		// compact/lone frames hold the values, not this slice. Clear the
		// slots so recycled headers do not pin shipped values.
		clear(r.vals)
		b.free = append(b.free, r.vals[:0])
		r.vals = nil
	}
	b.runs = b.runs[:0]
}

// chunkEnd returns where the chunk of vals from off ends, and how many
// stretches it holds: the first stretch, then each next one that fits
// MaxBatchDataBytes encoded as batch entries (a four-byte length plus the
// value each). splitRun is MWFaultSplitRun.
func chunkEnd(vals []proto.Value, off int, splitRun bool) (end, stretches int) {
	size := 0
	for end = off; end < len(vals); stretches++ {
		next := end + 1
		for next < len(vals) && next-end < MaxFrameEntries && vals[next].Equal(vals[end]) && !(splitRun && next-off >= 2) {
			next++
		}
		size += (next - end) * (4 + len(vals[end]))
		if end > off && (size > MaxBatchDataBytes || splitRun && end-off >= 2) {
			break
		}
		end = next
	}
	return end, stretches
}

// serve records that p_j — or, for j == id, this process — has an operation
// of its own on this register, and ships what the newly watched links were
// owed: every lane's backlog to p_j, or to everyone once this process
// serves. It runs in the step that delivers p_j's first READ, or that sends
// this process's own, so an owed run is never more than one step behind the
// first wait that could count it.
func (p *MWProc) serve(j int) {
	if p.serving[j] {
		return
	}
	p.serving[j] = true
	for w, l := range p.lanes {
		emit := p.emitLane(w)
		for to := 0; to < p.n; to++ {
			if to != p.id && (to == j || j == p.id) {
				l.ShipBacklog(to, emit)
			}
		}
	}
}

// broadcastSync starts a freshness round (line 5-6 analog, shared by reads
// and writes) and returns its round number.
func (p *MWProc) broadcastSync(eff *proto.Effects) int {
	rsn := p.rSync[p.id] + 1
	p.rSync[p.id] = rsn
	for j := 0; j < p.n; j++ {
		if j != p.id {
			eff.AddSend(j, ReadMsg{})
			p.msgsSent++
		}
	}
	return rsn
}

// StartWrite begins a write: the freshness round first, then the dominated
// append (see the file comment). With MWFaultSkipWriteSync the freshness
// round is skipped and the append happens at the writer's own next index.
func (p *MWProc) StartWrite(op proto.OpID, v proto.Value) proto.Effects {
	if p.cur != nil {
		panic(fmt.Sprintf("core: process %d invoked write while a %s is in flight (processes are sequential)", p.id, p.cur.kind))
	}
	eff := proto.Effects{Sends: p.sends[:0]}
	defer func() { p.sends = eff.Sends }()
	p.serve(p.id)
	if p.opts.fault == MWFaultSkipWriteSync {
		p.cur = &mwOp{op: op, kind: proto.OpWrite, phase: mwWritePropagate, val: v.Clone()}
		p.appendDominating(p.ownLane().Top() + 1)
		p.drain(&eff)
		return eff
	}
	rsn := p.broadcastSync(&eff)
	p.cur = &mwOp{op: op, kind: proto.OpWrite, phase: mwWriteSync, rsn: rsn, val: v.Clone()}
	p.drain(&eff)
	return eff
}

// appendDominating appends cur.val at every own-lane index up to target and
// arms the propagation wait: the writer appends the whole run locally and
// ships every peer its full backlog in one link round (the batcher
// coalesces the run into a single LaneCompact frame per peer).
func (p *MWProc) appendDominating(target int) {
	// cur.val is already this op's private clone and is never mutated, so
	// every padded index can share it by reference (AppendRef) — one clone
	// per write instead of one per padded entry.
	own := p.ownLane()
	for own.Top() < target {
		own.AppendRef(p.cur.val)
	}
	emit := p.emitLane(p.id)
	for j := 0; j < p.n; j++ {
		if j != p.id {
			own.ShipBacklog(j, emit)
		}
	}
	p.cur.wsn = target
	p.cur.phase = mwWritePropagate
}

// StartRead begins a read: freshness round, vector fix, vector wait,
// last-writer-wins merge. There is no writer fast path — a writer's own
// latest value need not be the globally latest one.
func (p *MWProc) StartRead(op proto.OpID) proto.Effects {
	if p.cur != nil {
		panic(fmt.Sprintf("core: process %d invoked read while a %s is in flight (processes are sequential)", p.id, p.cur.kind))
	}
	eff := proto.Effects{Sends: p.sends[:0]}
	defer func() { p.sends = eff.Sends }()
	p.serve(p.id)
	rsn := p.broadcastSync(&eff)
	p.cur = &mwOp{op: op, kind: proto.OpRead, phase: mwReadSync, rsn: rsn}
	p.drain(&eff)
	return eff
}

// Deliver implements the message handlers: lane WRITEs demultiplex to their
// lane's parity guard, READ()s park on the generalized line-20 guard, and
// PROCEED()s bump the freshness counters.
func (p *MWProc) Deliver(from int, msg proto.Message) proto.Effects {
	if from == p.id {
		panic(fmt.Sprintf("core: process %d received message from itself", p.id))
	}
	eff := proto.Effects{Sends: p.sends[:0]}
	defer func() { p.sends = eff.Sends }()
	switch m := msg.(type) {
	case LaneMsg:
		p.lane(m.Writer).Enqueue(from, m.M)
	case LaneBatchMsg:
		// Unpack through the same parity-gated reorder buffer as single
		// WRITEs: entry i carries parity (Bit+i) mod 2, so the receiver's
		// sequencing logic is untouched by the framing.
		l := p.lane(m.Writer)
		for i, v := range m.Vals {
			if p.opts.fault == MWFaultTornBatch && len(m.Vals) >= 3 && i > 0 && i < len(m.Vals)-1 {
				continue // tear: drop the middle of the batch
			}
			l.Enqueue(from, WriteMsg{Bit: p.tornBit(m.Bit, i, len(m.Vals)), Val: v})
		}
	case LaneCompactMsg:
		if m.Count < 2 || m.Count > MaxFrameEntries {
			panic(fmt.Sprintf("core: process %d received compact lane frame with count %d", p.id, m.Count))
		}
		l := p.lane(m.Writer)
		for i := 0; i < m.Count; i++ {
			if p.opts.fault == MWFaultTornBatch && m.Count >= 3 && i > 0 && i < m.Count-1 {
				continue // tear: drop the middle of the padding run
			}
			l.Enqueue(from, WriteMsg{Bit: p.tornBit(m.Bit, i, m.Count), Val: m.Val})
		}
	case ReadMsg:
		// The requester has an operation of its own: from here on it may be
		// counting this process's echoes (line 9), so they stop being owed.
		if p.opts.fault != MWFaultColdRead {
			p.serve(from)
		}
		// Line 19 analog: capture the freshness bar on every lane.
		sn := p.getSN()
		for u, l := range p.lanes {
			sn[u] = l.Top()
		}
		p.pendingSyncs = append(p.pendingSyncs, pendingSync{from: from, sn: sn})
	case ProceedMsg:
		p.rSync[from]++
	default:
		panic(fmt.Sprintf("core: process %d received foreign message %T", p.id, msg))
	}
	p.drain(&eff)
	return eff
}

// lane validates and returns writer w's lane (w is the owner's pid).
func (p *MWProc) lane(w int) *Lane {
	if w < 0 || w >= p.n {
		panic(fmt.Sprintf("core: process %d received lane message for unknown writer %d of %d", p.id, w, p.n))
	}
	return p.lanes[w]
}

// ownLane returns this process's own lane.
func (p *MWProc) ownLane() *Lane { return p.lanes[p.id] }

// tornBit computes entry i's parity. With MWFaultTornBatch active on a
// frame of three or more entries, the surviving tail is re-sequenced
// directly after the head (consecutive parities), so the tear is silent at
// the parity guard — the receiver's lane simply runs short.
func (p *MWProc) tornBit(bit uint8, i, count int) uint8 {
	if p.opts.fault == MWFaultTornBatch && count >= 3 && i == count-1 {
		i = 1
	}
	return uint8((int(bit) + i) % 2)
}

// drain re-evaluates every parked guard until no further progress is
// possible, mirroring the SWMR drain with one guard set per lane. The
// coalesced emission runs accumulated during the fixpoint are flushed onto
// the wire at the end, one frame per consecutive-index run per link.
func (p *MWProc) drain(eff *proto.Effects) {
	for progress := true; progress; {
		progress = false
		for w, l := range p.lanes {
			// A delivery parks on one lane; the rest have nothing to drain
			// and are skipped before their emit closure is built.
			if l.Parked() > 0 && l.Drain(p.emitLane(w)) {
				progress = true
			}
		}
		if p.flushPendingSyncs(eff) {
			progress = true
		}
		if p.advanceOp(eff) {
			progress = true
		}
	}
	p.batcher.flush(p, eff)
	for _, l := range p.lanes {
		l.NoteQuiesced()
	}
	// Durability point: appends stabilize before the step's frames release.
	p.syncStorage()
}

// flushPendingSyncs answers freshness requests whose requester caught up on
// every lane (line 20-21 analog).
func (p *MWProc) flushPendingSyncs(eff *proto.Effects) bool {
	progress := false
	kept := p.pendingSyncs[:0]
	for _, ps := range p.pendingSyncs {
		if p.caughtUp(ps.from, ps.sn) {
			eff.AddSend(ps.from, ProceedMsg{})
			p.msgsSent++
			progress = true
			p.putSN(ps.sn)
		} else {
			kept = append(kept, ps)
		}
	}
	p.pendingSyncs = kept
	return progress
}

// caughtUp reports whether process j is known to hold at least sn[u] values
// on every lane u.
func (p *MWProc) caughtUp(j int, sn []int) bool {
	for u, l := range p.lanes {
		if l.WSync(j) < sn[u] {
			return false
		}
	}
	return true
}

// countVectorGE returns the number of processes known to hold at least sn[u]
// values on every lane u (the line-9 analog's predicate).
func (p *MWProc) countVectorGE(sn []int) int {
	z := 0
	for j := 0; j < p.n; j++ {
		if p.caughtUp(j, sn) {
			z++
		}
	}
	return z
}

// advanceOp evaluates the wait predicate of the current operation phase and
// moves it forward when satisfied. Returns true on any state change.
func (p *MWProc) advanceOp(eff *proto.Effects) bool {
	if p.cur == nil {
		return false
	}
	switch p.cur.phase {
	case mwWriteSync:
		// Freshness quorum reached: this writer's lane tops now dominate
		// every write completed before this one was invoked. Append up to
		// the dominating index.
		if p.countRSyncEq(p.cur.rsn) >= p.quorum() {
			target := 0
			for _, l := range p.lanes {
				if l.Top() > target {
					target = l.Top()
				}
			}
			p.appendDominating(target + 1)
			return true
		}
	case mwWritePropagate:
		// Line 3 analog: n-t processes known to hold the write's index on
		// the own lane.
		if p.ownLane().CountGE(p.cur.wsn) >= p.quorum() {
			op := p.cur
			p.cur = nil
			// Rounds 2: the freshness round plus the propagation quorum.
			eff.AddDoneRounds(op.op, proto.OpWrite, nil, 2)
			return true
		}
	case mwReadSync:
		// Line 7-8 analog: fix the returned vector.
		if p.countRSyncEq(p.cur.rsn) >= p.quorum() {
			sn := p.getSN()
			for u, l := range p.lanes {
				sn[u] = l.Top()
			}
			p.cur.sn = sn
			p.cur.phase = mwReadWait
			return true
		}
	case mwReadWait:
		// Line 9 analog: n-t processes known to hold the vector.
		if p.countVectorGE(p.cur.sn) >= p.quorum() {
			op := p.cur
			p.cur = nil
			// Line 10 analog: last-writer-wins over (index, owner pid).
			// Lanes are indexed by owner pid, so >= keeps the highest pid
			// among equal indices.
			u := 0
			for k := 1; k < len(p.lanes); k++ {
				if op.sn[k] >= op.sn[u] {
					u = k
				}
			}
			// Rounds 2: the freshness round plus the vector confirm.
			eff.AddDoneRounds(op.op, proto.OpRead, p.lanes[u].HistAt(op.sn[u]).Clone(), 2)
			p.putSN(op.sn)
			op.sn = nil
			return true
		}
	}
	return false
}

// getSN returns a recycled (or fresh) per-lane index vector.
func (p *MWProc) getSN() []int {
	if k := len(p.snFree); k > 0 {
		sn := p.snFree[k-1]
		p.snFree = p.snFree[:k-1]
		return sn
	}
	return make([]int, len(p.lanes))
}

// putSN returns a vector to the freelist once no guard references it.
func (p *MWProc) putSN(sn []int) { p.snFree = append(p.snFree, sn) }

func (p *MWProc) countRSyncEq(x int) int {
	z := 0
	for _, v := range p.rSync {
		if v == x {
			z++
		}
	}
	return z
}

// LocalMemoryBits sums the per-lane Table 1 row 4 probe plus the freshness
// counters. With n lanes of unbounded history this grows with every write on
// any lane — the SWMR register's unbounded-memory property, n-fold.
func (p *MWProc) LocalMemoryBits() int {
	bits := 64 * len(p.rSync)
	for _, l := range p.lanes {
		bits += l.MemoryBits()
	}
	return bits
}

// --- introspection for tests and invariant checkers ---

// LaneTop returns this process's own index on writer w's lane.
func (p *MWProc) LaneTop(w int) int { return p.lane(w).Top() }

// LaneWSync returns w_sync[j] on writer w's lane.
func (p *MWProc) LaneWSync(w, j int) int { return p.lane(w).WSync(j) }

// LaneHistAt returns history[x] on writer w's lane (x must be retained).
func (p *MWProc) LaneHistAt(w, x int) proto.Value { return p.lane(w).HistAt(x) }

// LaneRetained returns the number of history entries writer w's lane holds.
func (p *MWProc) LaneRetained(w int) int { return p.lane(w).Retained() }

// MsgsSent returns the number of messages this process has emitted.
// Batched frames count as one message each, however many entries they
// carry — that is the quantity batching bounds.
func (p *MWProc) MsgsSent() int { return p.msgsSent }

// RequiresFIFOLinks implements proto.FIFOLinks: pipelining several lane
// frames per link gives up the reorder tolerance the alternating bit's
// one-in-flight pacing provided, so the register assumes FIFO links (what
// TCP and the cluster mailboxes provide; the simulator honors the
// declaration).
func (p *MWProc) RequiresFIFOLinks() bool { return true }

// LaneSent returns the highest index this process has shipped to peer j on
// writer w's lane.
func (p *MWProc) LaneSent(w, j int) int { return p.lane(w).Sent(j) }

// Serving reports whether, to this incarnation's knowledge, p_j has an
// operation of its own on this register: it has sent this process a READ
// (or the link to it was reset, PeerRestarted), or — for j == ID() — this
// process has started one. Links to serving peers, and every link of a
// serving process, are forwarded on at once; see LaneOwed for the rest.
func (p *MWProc) Serving(j int) bool { return p.serving[j] }

// LaneOwed returns how many indices of writer w's lane this process holds
// that peer j neither was sent nor has shown to hold (Lane.Owed: LaneTop -
// max(LaneSent, LaneWSync)).
func (p *MWProc) LaneOwed(w, j int) int { return p.lane(w).Owed(j) }

// Idle reports whether the process has no in-flight client operation.
func (p *MWProc) Idle() bool { return p.cur == nil }

var _ proto.Process = (*MWProc)(nil)
