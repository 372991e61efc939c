// Package core implements the paper's contribution: a single-writer
// multi-reader atomic register for CAMP_{n,t}[t < n/2] whose messages carry
// two bits of control information (their type) and nothing else.
//
// The implementation is a line-by-line transcription of Figure 1 of
// Mostéfaoui & Raynal, "Two-Bit Messages are Sufficient to Implement Atomic
// Read/Write Registers in Crash-prone Systems" (2016), restructured as an
// event-driven state machine: each of the paper's `wait` statements (lines 3,
// 7, 9, 11 and 20) becomes a predicate-gated pending queue that is re-examined
// after every state change, so no call ever blocks.
//
// The pairwise alternating-bit sequencing discipline — sender-side parity
// flip, receiver-side sequence-number reconstruction, the parity-gated
// reorder buffers, and the forward/catch-up rules — lives in the reusable
// Lane engine (lane.go). The SWMR Proc below is a single lane plus the
// read/write client protocol; the multi-writer extension (mwmr.go) runs one
// lane per writer over the same engine.
//
// Line references in comments are to Figure 1 of the paper.
package core

import (
	"fmt"

	"twobitreg/internal/proto"
)

type options struct {
	initial         proto.Value
	explicitSeqnums bool
	gcHistory       bool
	fault           Fault
}

// Option configures a Proc.
type Option func(*options)

// WithInitial sets v0, the register's initial value (default nil).
func WithInitial(v proto.Value) Option {
	return func(o *options) { o.initial = v.Clone() }
}

// WithExplicitSeqnums enables the ablation mode in which WRITE messages carry
// their sequence number explicitly (64 extra control bits) and the receiver
// sequences messages by that number instead of reconstructing it from the
// alternating bit. Behaviour is otherwise identical; the mode exists to
// measure what the two-bit encoding saves (experiment E5).
func WithExplicitSeqnums() Option {
	return func(o *options) { o.explicitSeqnums = true }
}

// WithHistoryGC enables garbage collection of the local history prefix — an
// extension addressing the unbounded-local-memory property the paper's
// concluding remarks discuss. Entries strictly below
//
//	min( min_j w_sync[j],  sn of any read in its line-9 wait )
//
// are discarded. This is safe: every history access the algorithm performs
// (line 2/15 forwards at w_sync[i], line 16 catch-ups at w_sync[j]+2, line
// 10 returns at a pinned sn) addresses an index at or above that floor, and
// w_sync entries never decrease.
//
// Failure-free, retained state becomes bounded by the propagation lag
// between the fastest and slowest process. A crashed process freezes the
// floor, so memory grows again from the crash point — without failure
// detection this is inherent, which is exactly the paper's open problem.
func WithHistoryGC() Option {
	return func(o *options) { o.gcHistory = true }
}

// Proc is one process of the two-bit register protocol. It implements
// proto.Process and must be driven by a single goroutine.
type Proc struct {
	id, n, writer int
	opts          options

	// lane carries the writer's value stream: history, per-peer knowledge
	// (w_sync), and the parity-gated reorder buffers (see Lane).
	lane *Lane

	// rSync[j] counts PROCEED() messages received from p_j; rSync[id]
	// counts this process's own read invocations (line 5).
	rSync []int

	// pendingReads holds READ requests parked on the line-20 guard
	// w_sync[from] >= sn.
	pendingReads []pendingRead

	// cur is the in-flight client operation, if any. Processes are
	// sequential (one operation at a time); violating that is a harness
	// bug and panics.
	cur *pendingOp

	// msgsSent counts WRITE/READ/PROCEED messages this process emitted,
	// for per-process accounting in tests.
	msgsSent int

	// sends is the Effects.Sends scratch reused across steps (see the
	// proto.Effects contract: callers consume Sends before re-entering).
	sends []proto.Send
}

type pendingRead struct {
	from int
	sn   int // w_sync[id] captured when the READ arrived (line 19)
}

type opPhase uint8

const (
	phaseWriteWait opPhase = iota + 1 // line 3
	phaseReadAck                      // line 7
	phaseReadSync                     // line 9
)

type pendingOp struct {
	op    proto.OpID
	kind  proto.OpKind
	phase opPhase
	wsn   int // write: sequence number being written
	rsn   int // read: request sequence number (line 5)
	sn    int // read: history index chosen at line 8
}

// New returns the process with index id of an n-process instance whose
// single writer is process writer.
func New(id, n, writer int, opts ...Option) *Proc {
	proto.Validate(id, n, writer)
	var o options
	for _, op := range opts {
		op(&o)
	}
	p := &Proc{
		id:     id,
		n:      n,
		writer: writer,
		opts:   o,
		lane:   NewLane(id, n, o.initial, o.explicitSeqnums),
		rSync:  make([]int, n),
	}
	return p
}

// Algorithm returns a proto.Algorithm that builds two-bit processes with the
// given options.
func Algorithm(opts ...Option) proto.Algorithm { return algorithm{opts: opts} }

type algorithm struct{ opts []Option }

func (algorithm) Name() string { return "twobit" }

func (a algorithm) New(id, n, writer int) proto.Process {
	return New(id, n, writer, a.opts...)
}

// ID implements proto.Process.
func (p *Proc) ID() int { return p.id }

// Writer returns the index of the designated writer.
func (p *Proc) Writer() int { return p.writer }

// quorum returns n-t, the completion threshold of every wait predicate.
func (p *Proc) quorum() int { return proto.QuorumSize(p.n) }

// emit returns the lane emit callback that routes WRITEs into eff and keeps
// the per-process message count.
func (p *Proc) emit(eff *proto.Effects) emitFn {
	return func(to, _ int, m WriteMsg) {
		eff.AddSend(to, m)
		p.msgsSent++
	}
}

// StartWrite implements Figure 1 lines 1-2 and arms the line-3 wait.
func (p *Proc) StartWrite(op proto.OpID, v proto.Value) proto.Effects {
	if p.id != p.writer {
		panic(fmt.Sprintf("core: StartWrite on non-writer process %d (writer is %d)", p.id, p.writer))
	}
	if p.cur != nil {
		panic(fmt.Sprintf("core: process %d invoked write while a %s is in flight (processes are sequential)", p.id, p.cur.kind))
	}
	eff := proto.Effects{Sends: p.sends[:0]}
	defer func() { p.sends = eff.Sends }()
	// Line 1: wsn <- w_sync[w]+1; w_sync[w] <- wsn; history[wsn] <- v.
	wsn := p.lane.Append(v)
	// Line 2: send WRITE(wsn mod 2, v) to every p_j believed to know
	// exactly the first wsn-1 values.
	p.lane.Forward(wsn, p.emit(&eff))
	// Line 3: wait until n-t processes are known to hold value wsn.
	p.cur = &pendingOp{op: op, kind: proto.OpWrite, phase: phaseWriteWait, wsn: wsn}
	p.drain(&eff)
	return eff
}

// StartRead implements Figure 1 lines 5-6 and arms the line-7 wait
// (then line 9 via drain). The writer answers from its own history.
func (p *Proc) StartRead(op proto.OpID) proto.Effects {
	if p.cur != nil {
		panic(fmt.Sprintf("core: process %d invoked read while a %s is in flight (processes are sequential)", p.id, p.cur.kind))
	}
	eff := proto.Effects{Sends: p.sends[:0]}
	defer func() { p.sends = eff.Sends }()
	if p.id == p.writer {
		// Figure 1, line 5 comment: the writer may return
		// history[w_sync[w]] directly — its own value is always the
		// most recent one.
		eff.AddDone(op, proto.OpRead, p.lane.HistAt(p.lane.Top()).Clone())
		return eff
	}
	// Line 5: rsn <- r_sync[i]+1.
	rsn := p.rSync[p.id] + 1
	p.rSync[p.id] = rsn
	// Line 6: broadcast READ() to everyone else.
	for j := 0; j < p.n; j++ {
		if j != p.id {
			eff.AddSend(j, ReadMsg{})
			p.msgsSent++
		}
	}
	// Line 7: wait until n-t processes answered request rsn.
	p.cur = &pendingOp{op: op, kind: proto.OpRead, phase: phaseReadAck, rsn: rsn}
	p.drain(&eff)
	return eff
}

// Deliver implements the message handlers of Figure 1 (lines 11-22).
func (p *Proc) Deliver(from int, msg proto.Message) proto.Effects {
	if from == p.id {
		panic(fmt.Sprintf("core: process %d received message from itself", p.id))
	}
	eff := proto.Effects{Sends: p.sends[:0]}
	defer func() { p.sends = eff.Sends }()
	switch m := msg.(type) {
	case WriteMsg:
		// Line 11: park behind the parity guard; drain processes
		// whatever has become processable.
		p.lane.Enqueue(from, m)
	case ReadMsg:
		// Line 19: capture the freshness bar sn = w_sync[i].
		sn := p.lane.Top()
		// Line 20 wait: park until w_sync[from] >= sn, then PROCEED.
		p.pendingReads = append(p.pendingReads, pendingRead{from: from, sn: sn})
	case ProceedMsg:
		// Line 22: one more of our READ requests has been answered.
		p.rSync[from]++
	default:
		panic(fmt.Sprintf("core: process %d received foreign message %T", p.id, msg))
	}
	p.drain(&eff)
	return eff
}

// drain re-evaluates every parked guard until no further progress is
// possible. It is called after every state change, making the paper's
// blocking `wait` statements non-blocking.
func (p *Proc) drain(eff *proto.Effects) {
	emit := p.emit(eff)
	for progress := true; progress; {
		progress = false

		// Line 11 guards: process buffered WRITEs that became in-order.
		if p.lane.Drain(emit) {
			progress = true
		}

		// Line 20 guards: answer READs whose requester caught up.
		if p.flushPendingReads(eff) {
			progress = true
		}

		// Lines 3, 7, 9: advance the in-flight client operation.
		if p.advanceOp(eff) {
			progress = true
		}
	}
	// Property P1 probe: after the fixpoint, count messages still parked
	// on the line-11 guard. The alternating-bit discipline bounds this at
	// one per peer; transient depths during drain do not count.
	p.lane.NoteQuiesced()
	p.maybeGC()
}

func (p *Proc) flushPendingReads(eff *proto.Effects) bool {
	progress := false
	kept := p.pendingReads[:0]
	for _, pr := range p.pendingReads {
		if p.opts.fault == FaultSkipProceedWait || p.lane.WSync(pr.from) >= pr.sn {
			// Line 21.
			eff.AddSend(pr.from, ProceedMsg{})
			p.msgsSent++
			progress = true
		} else {
			kept = append(kept, pr)
		}
	}
	p.pendingReads = kept
	return progress
}

// advanceOp evaluates the wait predicate of the current operation phase and
// moves it forward when satisfied. Returns true on any state change.
func (p *Proc) advanceOp(eff *proto.Effects) bool {
	if p.cur == nil {
		return false
	}
	switch p.cur.phase {
	case phaseWriteWait:
		// Line 3: z >= n-t processes with w_sync[j] == wsn.
		need := p.quorum()
		if p.opts.fault == FaultAckBeforeQuorum {
			need--
		}
		if p.lane.CountEq(p.cur.wsn) >= need {
			op := p.cur
			p.cur = nil
			eff.AddDoneRounds(op.op, proto.OpWrite, nil, 1)
			return true
		}
	case phaseReadAck:
		// Line 7: z >= n-t processes with r_sync[j] == rsn.
		if p.countRSyncEq(p.cur.rsn) >= p.quorum() {
			// Line 8: fix the returned index.
			p.cur.sn = p.lane.Top()
			p.cur.phase = phaseReadSync
			return true
		}
	case phaseReadSync:
		// Line 9: z >= n-t processes with w_sync[j] >= sn.
		if p.lane.CountGE(p.cur.sn) >= p.quorum() {
			op := p.cur
			p.cur = nil
			// Line 10. Rounds 2: the PROCEED round plus the line-9 confirm.
			eff.AddDoneRounds(op.op, proto.OpRead, p.lane.HistAt(op.sn).Clone(), 2)
			return true
		}
	}
	return false
}

func (p *Proc) countRSyncEq(x int) int {
	z := 0
	for _, v := range p.rSync {
		if v == x {
			z++
		}
	}
	return z
}

// maybeGC discards history entries below the safe floor (see WithHistoryGC).
func (p *Proc) maybeGC() {
	if !p.opts.gcHistory {
		return
	}
	floor := p.lane.MinWSync()
	if p.cur != nil && p.cur.phase == phaseReadSync && p.cur.sn < floor {
		floor = p.cur.sn // a parked read still needs history[sn]
	}
	p.lane.Compact(floor)
}

// LocalMemoryBits implements the Table 1 row 4 probe: the bits held in
// retained history (values) plus 64 bits per sequence-number cell. Without
// WithHistoryGC the history term grows without bound with the number of
// writes — the "unbounded" entry in the paper's table.
func (p *Proc) LocalMemoryBits() int {
	return p.lane.MemoryBits() + 64*len(p.rSync)
}

// --- introspection for tests, invariant checkers and the eval harness ---

// WSync returns w_sync[j].
func (p *Proc) WSync(j int) int { return p.lane.WSync(j) }

// RSync returns r_sync[j].
func (p *Proc) RSync(j int) int { return p.rSync[j] }

// HistoryLen returns the number of known values including v0 (logical
// length: garbage-collected entries still count).
func (p *Proc) HistoryLen() int { return p.lane.HistoryLen() }

// HistoryAt returns history[x]; x must be retained (>= HistoryBase).
func (p *Proc) HistoryAt(x int) proto.Value { return p.lane.HistAt(x) }

// HistoryBase returns the lowest retained history index (0 unless
// WithHistoryGC discarded a prefix).
func (p *Proc) HistoryBase() int { return p.lane.HistoryBase() }

// RetainedValues returns the number of history entries currently held.
func (p *Proc) RetainedValues() int { return p.lane.Retained() }

// MaxPendingDepth reports the deepest line-11 reorder buffer observed; the
// alternating-bit discipline (Property P1) bounds it at 1.
func (p *Proc) MaxPendingDepth() int { return p.lane.MaxPendingDepth() }

// MsgsSent returns the number of messages this process has emitted.
func (p *Proc) MsgsSent() int { return p.msgsSent }

// Idle reports whether the process has no in-flight client operation.
func (p *Proc) Idle() bool { return p.cur == nil }

var _ proto.Process = (*Proc)(nil)
