// Package abd implements the Attiya–Bar-Noy–Dolev atomic register with
// unbounded sequence numbers — the classic baseline the paper compares
// against (Table 1, column "ABD95 unbounded seq. nb").
//
// Two variants are provided:
//
//   - Proc: the SWMR register. Writes are one broadcast/ack round (2Δ, O(n)
//     messages); reads are a query round followed by a write-back round
//     (4Δ, O(n) messages).
//   - MWMRProc (mwmr.go): the multi-writer extension in which a write first
//     queries a quorum for the highest timestamp (4Δ writes).
//
// Unlike the two-bit algorithm, every message carries a timestamp whose
// counter grows with the number of writes: the control information per
// message is unbounded in the long run.
package abd

import (
	"fmt"

	"twobitreg/internal/proto"
)

// Proc is one process of the SWMR ABD register. It implements proto.Process
// and must be driven by a single goroutine.
type Proc struct {
	id, n, writer int

	// Register state: the highest timestamp seen and its value.
	ts  TS
	val proto.Value

	// Writer-side write counter (SWMR: timestamps are (counter, writer)).
	wcount int
	// Read-request counter, used as RID.
	rcount uint64

	cur *op

	msgsSent int
}

type op struct {
	op    proto.OpID
	kind  proto.OpKind
	phase opPhase

	ts   TS           // timestamp being written / written back
	rid  uint64       // read request id
	val  proto.Value  // value being written / to return
	acks map[int]bool // distinct responders in the current phase

	// query results (read phase 1)
	maxTS  TS
	maxVal proto.Value
}

type opPhase uint8

const (
	phaseWriteAck  opPhase = iota + 1 // waiting for WriteAcks
	phaseReadQuery                    // waiting for ReadAcks
	phaseReadBack                     // waiting for write-back WriteAcks
)

// New returns the SWMR ABD process with index id of n whose writer is writer.
func New(id, n, writer int, initial proto.Value) *Proc {
	proto.Validate(id, n, writer)
	return &Proc{id: id, n: n, writer: writer, val: initial.Clone()}
}

// Algorithm returns a proto.Algorithm building SWMR ABD processes.
func Algorithm() proto.Algorithm { return algorithm{} }

type algorithm struct{}

func (algorithm) Name() string { return "abd" }
func (algorithm) New(id, n, writer int) proto.Process {
	return New(id, n, writer, nil)
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

// StartWrite begins the single broadcast/ack write round.
func (p *Proc) StartWrite(id proto.OpID, v proto.Value) proto.Effects {
	if p.id != p.writer {
		panic(fmt.Sprintf("abd: StartWrite on non-writer process %d", p.id))
	}
	if p.cur != nil {
		panic(fmt.Sprintf("abd: process %d invoked write during a %s", p.id, p.cur.kind))
	}
	var eff proto.Effects
	p.wcount++
	ts := TS{Num: p.wcount, PID: p.id}
	p.adopt(ts, v)
	p.cur = &op{op: id, kind: proto.OpWrite, phase: phaseWriteAck, ts: ts, acks: map[int]bool{p.id: true}}
	for j := 0; j < p.n; j++ {
		if j != p.id {
			eff.AddSend(j, WriteReq{TS: ts, Val: v})
			p.msgsSent++
		}
	}
	p.finishIfQuorum(&eff)
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
	p.cur = &op{
		op: id, kind: proto.OpRead, phase: phaseReadQuery,
		rid: p.rcount, acks: map[int]bool{p.id: true},
		maxTS: p.ts, maxVal: p.val.Clone(),
	}
	for j := 0; j < p.n; j++ {
		if j != p.id {
			eff.AddSend(j, ReadReq{RID: p.rcount})
			p.msgsSent++
		}
	}
	p.finishIfQuorum(&eff)
	return eff
}

// Deliver implements the ABD message handlers.
func (p *Proc) Deliver(from int, msg proto.Message) proto.Effects {
	if from == p.id {
		panic(fmt.Sprintf("abd: process %d received message from itself", p.id))
	}
	var eff proto.Effects
	switch m := msg.(type) {
	case WriteReq:
		p.adopt(m.TS, m.Val)
		eff.AddSend(from, WriteAck{TS: m.TS})
		p.msgsSent++
	case WriteAck:
		c := p.cur
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
		c := p.cur
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
	case phaseWriteAck:
		p.cur = nil
		eff.AddDoneRounds(c.op, proto.OpWrite, nil, 1)
	case phaseReadQuery:
		// Phase 2: write back the maximum before returning it.
		c.phase = phaseReadBack
		c.ts = c.maxTS
		c.val = c.maxVal
		c.acks = map[int]bool{p.id: true}
		p.adopt(c.ts, c.val)
		for j := 0; j < p.n; j++ {
			if j != p.id {
				eff.AddSend(j, WriteReq{TS: c.ts, Val: c.val})
				p.msgsSent++
			}
		}
		// A 1-process instance has its quorum immediately.
		p.finishIfQuorum(eff)
	case phaseReadBack:
		// Rounds 2: the query round plus the write-back round.
		p.cur = nil
		eff.AddDoneRounds(c.op, proto.OpRead, c.val.Clone(), 2)
	}
}

// LocalMemoryBits reports the register copy plus counters: constant in the
// number of writes apart from the unbounded timestamp counter itself.
func (p *Proc) LocalMemoryBits() int {
	return tsBits + len(p.val)*8 + 64 /* wcount */ + 64 /* rcount */
}

// MsgsSent returns the number of messages this process has emitted.
func (p *Proc) MsgsSent() int { return p.msgsSent }

// Idle reports whether no operation is in flight.
func (p *Proc) Idle() bool { return p.cur == nil }

var _ proto.Process = (*Proc)(nil)
