// Package abd implements the Attiya–Bar-Noy–Dolev atomic register with
// unbounded sequence numbers — the classic baseline the paper compares
// against (Table 1, column "ABD95 unbounded seq. nb").
//
// One state machine, Proc, serves two algorithms:
//
//   - abd (Algorithm, New): the SWMR register. A designated writer stamps
//     each write with its own counter, so a write is one broadcast/ack
//     round (2Δ, O(n) messages).
//   - abd-mwmr (MWMRAlgorithm, NewMWMR): every process may write, so a
//     write first queries a quorum for the highest timestamp (TsReq/TsAck)
//     and then propagates (max+1, id) — two rounds, 4Δ.
//
// Reads are the same in both: a query round followed by a write-back round
// (4Δ, O(n) messages); the write-back prevents new/old inversion.
//
// Unlike the two-bit algorithm, every message carries a timestamp whose
// counter grows with the number of writes: the control information per
// message is unbounded in the long run. The two-bit paper's algorithm is
// inherently SWMR; the multi-writer form exists so the linearizability
// checker and the cluster runtime are exercised on genuinely concurrent
// writes too.
package abd

import (
	"fmt"

	"twobitreg/internal/proto"
)

// Proc is one process of the ABD register, single- or multi-writer. It
// implements proto.Process and must be driven by a single goroutine.
type Proc struct {
	id, n int
	// writer is the designated writer, or -1 when every process may write
	// (the multi-writer form).
	writer int

	// Register state: the highest timestamp seen and its value.
	ts  TS
	val proto.Value

	// The designated writer's write counter (SWMR timestamps are
	// (counter, writer)).
	wcount int
	// Request counter, used as the RID of read and timestamp queries.
	rcount uint64

	cur *op

	msgsSent int
}

type op struct {
	op    proto.OpID
	kind  proto.OpKind
	phase opPhase

	ts   TS           // timestamp being written / written back
	rid  uint64       // query request id
	val  proto.Value  // value being written / to return
	acks map[int]bool // distinct responders in the current phase

	// query results (the first round of a read or multi-writer write)
	maxTS  TS
	maxVal proto.Value
}

type opPhase uint8

const (
	phaseWriteQuery opPhase = iota + 1 // waiting for TsAcks (multi-writer)
	phaseWriteAck                      // waiting for WriteAcks
	phaseReadQuery                     // waiting for ReadAcks
	phaseReadBack                      // waiting for write-back WriteAcks
)

// New returns the SWMR ABD process with index id of n whose writer is writer.
func New(id, n, writer int, initial proto.Value) *Proc {
	proto.Validate(id, n, writer)
	return &Proc{id: id, n: n, writer: writer, val: initial.Clone()}
}

// NewMWMR returns the MWMR ABD process with index id of n: every process
// may write.
func NewMWMR(id, n int, initial proto.Value) *Proc {
	proto.Validate(id, n, 0)
	return &Proc{id: id, n: n, writer: -1, val: initial.Clone()}
}

// Algorithm returns a proto.Algorithm building SWMR ABD processes.
func Algorithm() proto.Algorithm {
	return proto.Alg("abd", func(id, n, writer int) proto.Process { return New(id, n, writer, nil) })
}

// MWMRAlgorithm returns a proto.Algorithm building MWMR ABD processes.
// The writer argument is ignored: every process may write.
func MWMRAlgorithm() proto.Algorithm {
	return proto.Alg("abd-mwmr", func(id, n, _ int) proto.Process { return NewMWMR(id, n, nil) })
}

// ID implements proto.Process.
func (p *Proc) ID() int { return p.id }

func (p *Proc) quorum() int { return proto.QuorumSize(p.n) }

// adopt updates the local register copy if (ts, v) is newer.
func (p *Proc) adopt(ts TS, v proto.Value) {
	if p.ts.Less(ts) {
		p.ts = ts
		p.val = v.Clone()
	}
}

// StartWrite begins a write. The designated writer stamps it with its own
// counter and propagates at once; in the multi-writer form a write first
// queries a quorum for the highest timestamp.
func (p *Proc) StartWrite(id proto.OpID, v proto.Value) proto.Effects {
	if p.cur != nil {
		panic(fmt.Sprintf("abd: process %d invoked write during a %s", p.id, p.cur.kind))
	}
	var eff proto.Effects
	switch {
	case p.writer < 0:
		p.rcount++
		p.cur = &op{op: id, kind: proto.OpWrite, rid: p.rcount, val: v.Clone(), maxTS: p.ts}
		p.round(&eff, phaseWriteQuery, TsReq{RID: p.rcount})
	case p.id != p.writer:
		panic(fmt.Sprintf("abd: StartWrite on non-writer process %d", p.id))
	default:
		p.wcount++
		p.cur = &op{op: id, kind: proto.OpWrite}
		p.propagate(&eff, phaseWriteAck, TS{Num: p.wcount, PID: p.id}, v)
	}
	return eff
}

// StartRead begins the two-round read: query a quorum, then write back the
// maximum before returning it (the write-back prevents new/old inversion).
func (p *Proc) StartRead(id proto.OpID) proto.Effects {
	if p.cur != nil {
		panic(fmt.Sprintf("abd: process %d invoked read during a %s", p.id, p.cur.kind))
	}
	var eff proto.Effects
	p.rcount++
	p.cur = &op{op: id, kind: proto.OpRead, rid: p.rcount, maxTS: p.ts, maxVal: p.val.Clone()}
	p.round(&eff, phaseReadQuery, ReadReq{RID: p.rcount})
	return eff
}

// round starts the current operation's next phase: m goes to every other
// process, and the phase waits for a quorum of replies, this process
// counting as one.
func (p *Proc) round(eff *proto.Effects, phase opPhase, m proto.Message) {
	c := p.cur
	c.phase = phase
	c.acks = map[int]bool{p.id: true}
	for j := 0; j < p.n; j++ {
		if j != p.id {
			eff.AddSend(j, m)
			p.msgsSent++
		}
	}
	p.finishIfQuorum(eff)
}

// propagate starts a WriteReq round for (ts, v): a write's last round or a
// read's write-back.
func (p *Proc) propagate(eff *proto.Effects, phase opPhase, ts TS, v proto.Value) {
	p.cur.ts, p.cur.val = ts, v
	p.adopt(ts, v)
	p.round(eff, phase, WriteReq{TS: ts, Val: v})
}

// Deliver implements the ABD message handlers.
func (p *Proc) Deliver(from int, msg proto.Message) proto.Effects {
	if from == p.id {
		panic(fmt.Sprintf("abd: process %d received message from itself", p.id))
	}
	var eff proto.Effects
	c := p.cur
	switch m := msg.(type) {
	case TsReq:
		eff.AddSend(from, TsAck{RID: m.RID, TS: p.ts})
		p.msgsSent++
	case TsAck:
		if c == nil || c.phase != phaseWriteQuery || c.rid != m.RID {
			break // stale ack from a previous write
		}
		c.acks[from] = true
		if c.maxTS.Less(m.TS) {
			c.maxTS = m.TS
		}
	case WriteReq:
		p.adopt(m.TS, m.Val)
		eff.AddSend(from, WriteAck{TS: m.TS})
		p.msgsSent++
	case WriteAck:
		if c == nil || c.ts != m.TS {
			break // stale ack from a previous operation
		}
		if c.phase == phaseWriteAck || c.phase == phaseReadBack {
			c.acks[from] = true
		}
	case ReadReq:
		eff.AddSend(from, ReadAck{RID: m.RID, TS: p.ts, Val: p.val})
		p.msgsSent++
	case ReadAck:
		if c == nil || c.phase != phaseReadQuery || c.rid != m.RID {
			break // stale ack from a previous read
		}
		c.acks[from] = true
		if c.maxTS.Less(m.TS) {
			c.maxTS = m.TS
			c.maxVal = m.Val.Clone()
		}
		p.adopt(m.TS, m.Val)
	default:
		panic(fmt.Sprintf("abd: process %d received foreign message %T", p.id, msg))
	}
	p.finishIfQuorum(&eff)
	return eff
}

// finishIfQuorum advances the current operation when its phase has a quorum.
func (p *Proc) finishIfQuorum(eff *proto.Effects) {
	c := p.cur
	if c == nil || len(c.acks) < p.quorum() {
		return
	}
	switch c.phase {
	case phaseWriteQuery:
		// Claim the next timestamp and propagate.
		p.propagate(eff, phaseWriteAck, TS{Num: c.maxTS.Num + 1, PID: p.id}, c.val)
	case phaseWriteAck:
		// A multi-writer write also ran the timestamp query round.
		rounds := 1
		if p.writer < 0 {
			rounds = 2
		}
		p.cur = nil
		eff.AddDoneRounds(c.op, proto.OpWrite, nil, rounds)
	case phaseReadQuery:
		// Write back the maximum before returning it.
		p.propagate(eff, phaseReadBack, c.maxTS, c.maxVal)
	case phaseReadBack:
		// Rounds 2: the query round plus the write-back round.
		p.cur = nil
		eff.AddDoneRounds(c.op, proto.OpRead, c.val.Clone(), 2)
	}
}

// LocalMemoryBits reports the register copy plus counters: constant in the
// number of writes apart from the unbounded timestamp counter itself. Only
// the designated writer's form keeps a write counter.
func (p *Proc) LocalMemoryBits() int {
	bits := tsBits + len(p.val)*8 + 64 /* rcount */
	if p.writer >= 0 {
		bits += 64 /* wcount */
	}
	return bits
}

// MsgsSent returns the number of messages this process has emitted.
func (p *Proc) MsgsSent() int { return p.msgsSent }

// Idle reports whether no operation is in flight.
func (p *Proc) Idle() bool { return p.cur == nil }

var _ proto.Process = (*Proc)(nil)
