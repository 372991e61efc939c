// Package phased implements a parameterized multi-phase quorum register used
// to reproduce the cost profiles of the bounded-control-information
// algorithms in the paper's Table 1 (bounded ABD and Attiya's algorithm).
//
// Those algorithms rely on bounded concurrent timestamp systems, which the
// paper does not describe — it cites their published costs (round counts,
// message counts, control sizes) from [1,19]. This package therefore builds
// cost-faithful comparators: genuine quorum register protocols (the first
// phases are exactly ABD's exchange, so reads and writes are atomic) whose
// phase schedule, message pattern and declared control payload match the
// published figures:
//
//	bounded ABD:  write 6 phases (12Δ), read 6 phases (12Δ),
//	              all-to-all echoes (O(n²) msgs), Θ(n⁵)-bit control payloads.
//	Attiya:       write 7 phases (14Δ), read 9 phases (18Δ),
//	              direct acks (O(n) msgs), Θ(n³)-bit control payloads.
//
// Control payloads are accounted (Message.ControlBits), not materialized:
// allocating n⁵ bits per message would make the simulation infeasible
// without changing any measured quantity. internal/eval's package doc, the
// index of the evaluation, records this substitution.
package phased

import (
	"fmt"

	"twobitreg/internal/proto"
)

// Config selects a comparator's cost profile.
type Config struct {
	// Name identifies the algorithm ("bounded-abd", "attiya").
	Name string
	// WritePhases and ReadPhases are the number of sequential
	// request/acknowledge rounds per operation; each round costs 2Δ.
	WritePhases int
	ReadPhases  int
	// EchoAll, when true, makes every recipient broadcast its
	// acknowledgement to all processes (O(n²) messages per phase) instead
	// of answering the initiator directly (O(n) messages per phase).
	EchoAll bool
	// CtrlBits returns the declared control payload, in bits, carried by
	// each message of an n-process instance (the bounded-timestamp
	// structure of the original algorithm).
	CtrlBits func(n int) int
	// MemoryBits returns the declared per-process local storage, in bits,
	// of an n-process instance.
	MemoryBits func(n int) int
}

// BoundedABD returns the cost profile of the bounded sequence-number
// version of ABD (Table 1, column "ABD95 bounded seq. nb"), registered as
// "bounded-abd". Published costs (the paper's Table 1, itself citing
// [1,19]): write O(n²) messages / 12Δ, read O(n²) messages / 12Δ — six
// all-to-all echo rounds per operation — with messages carrying O(n⁵) bits
// of control information and O(n⁶) bits of local memory.
func BoundedABD() Config {
	return Config{
		Name:        "bounded-abd",
		WritePhases: 6, // 12Δ
		ReadPhases:  6, // 12Δ
		EchoAll:     true,
		CtrlBits:    func(n int) int { return n * n * n * n * n },
		MemoryBits:  func(n int) int { return n * n * n * n * n * n },
	}
}

// Attiya returns the cost profile of H. Attiya's bounded algorithm
// ("Efficient and robust sharing of memory in message-passing systems",
// J. Algorithms 2000; Table 1, column "H. Attiya's algorithm"), registered
// as "attiya". Published costs (same sources): write O(n) messages / 14Δ,
// read O(n) messages / 18Δ — seven direct request/ack rounds per write,
// nine per read — with messages carrying O(n³) bits of control information
// and O(n⁵) bits of local memory.
func Attiya() Config {
	return Config{
		Name:        "attiya",
		WritePhases: 7, // 14Δ
		ReadPhases:  9, // 18Δ
		EchoAll:     false,
		CtrlBits:    func(n int) int { return n * n * n },
		MemoryBits:  func(n int) int { return n * n * n * n * n },
	}
}

func (c Config) validate() {
	if c.Name == "" || c.WritePhases < 1 || c.ReadPhases < 2 || c.CtrlBits == nil || c.MemoryBits == nil {
		panic(fmt.Sprintf("phased: invalid config %+v", c))
	}
}

// Req is the phase-initiation message. Phase 1 of a write carries the new
// value; phase 2 of a read carries the write-back value; other phases are
// timestamp-maintenance rounds and repeat the current (TS, Val).
type Req struct {
	RID   uint64
	Phase uint8
	TS    int
	Val   proto.Value
	Bits  int // declared control payload of the source algorithm
	Name  string
}

// TypeName implements proto.Message.
func (m Req) TypeName() string { return m.Name + "_REQ" }

// ControlBits implements proto.Message.
func (m Req) ControlBits() int { return m.Bits }

// DataBytes implements proto.Message.
func (m Req) DataBytes() int { return len(m.Val) }

// Ack acknowledges a phase, piggybacking the responder's register state.
type Ack struct {
	RID   uint64
	Phase uint8
	TS    int
	Val   proto.Value
	Bits  int
	Name  string
	// Initiator is the process whose phase this acknowledges; in EchoAll
	// mode the ack is broadcast and non-initiators use it only as gossip.
	Initiator int
}

// TypeName implements proto.Message.
func (m Ack) TypeName() string { return m.Name + "_ACK" }

// ControlBits implements proto.Message.
func (m Ack) ControlBits() int { return m.Bits }

// DataBytes implements proto.Message.
func (m Ack) DataBytes() int { return len(m.Val) }

var (
	_ proto.Message = Req{}
	_ proto.Message = Ack{}
)

// Proc is one process of a phased comparator register.
type Proc struct {
	id, n, writer int
	cfg           Config
	bits          int

	ts  int // SWMR: the writer's counter; readers write back existing ts
	val proto.Value

	wcount int
	rid    uint64

	cur *op

	msgsSent int
}

type op struct {
	op     proto.OpID
	kind   proto.OpKind
	phase  uint8
	last   uint8
	rid    uint64
	val    proto.Value // value being written (writes)
	acks   map[int]bool
	maxTS  int
	maxVal proto.Value
}

// New returns process id of an n-process instance with the given writer.
func New(cfg Config, id, n, writer int) *Proc {
	cfg.validate()
	proto.Validate(id, n, writer)
	return &Proc{id: id, n: n, writer: writer, cfg: cfg, bits: cfg.CtrlBits(n)}
}

// Algorithm adapts a Config to proto.Algorithm.
func Algorithm(cfg Config) proto.Algorithm {
	cfg.validate()
	return algorithm{cfg: cfg}
}

type algorithm struct{ cfg Config }

func (a algorithm) Name() string { return a.cfg.Name }
func (a algorithm) New(id, n, writer int) proto.Process {
	return New(a.cfg, id, n, writer)
}

// ID implements proto.Process.
func (p *Proc) ID() int { return p.id }

func (p *Proc) quorum() int { return proto.QuorumSize(p.n) }

func (p *Proc) adopt(ts int, v proto.Value) {
	if ts > p.ts {
		p.ts = ts
		p.val = v.Clone()
	}
}

// StartWrite begins the write phase schedule.
func (p *Proc) StartWrite(id proto.OpID, v proto.Value) proto.Effects {
	if p.id != p.writer {
		panic(fmt.Sprintf("%s: StartWrite on non-writer process %d", p.cfg.Name, p.id))
	}
	if p.cur != nil {
		panic(fmt.Sprintf("%s: process %d invoked write during a %s", p.cfg.Name, p.id, p.cur.kind))
	}
	p.wcount++
	p.rid++
	p.adopt(p.wcount, v)
	p.cur = &op{
		op: id, kind: proto.OpWrite, phase: 1, last: uint8(p.cfg.WritePhases),
		rid: p.rid, val: v.Clone(), acks: map[int]bool{p.id: true},
		maxTS: p.wcount, maxVal: v.Clone(),
	}
	var eff proto.Effects
	p.broadcastPhase(&eff)
	p.finishIfQuorum(&eff)
	return eff
}

// StartRead begins the read phase schedule.
func (p *Proc) StartRead(id proto.OpID) proto.Effects {
	if p.cur != nil {
		panic(fmt.Sprintf("%s: process %d invoked read during a %s", p.cfg.Name, p.id, p.cur.kind))
	}
	p.rid++
	p.cur = &op{
		op: id, kind: proto.OpRead, phase: 1, last: uint8(p.cfg.ReadPhases),
		rid: p.rid, acks: map[int]bool{p.id: true},
		maxTS: p.ts, maxVal: p.val.Clone(),
	}
	var eff proto.Effects
	p.broadcastPhase(&eff)
	p.finishIfQuorum(&eff)
	return eff
}

// broadcastPhase sends the current phase's Req to all peers.
func (p *Proc) broadcastPhase(eff *proto.Effects) {
	c := p.cur
	m := Req{RID: c.rid, Phase: c.phase, TS: c.maxTS, Val: c.maxVal, Bits: p.bits, Name: p.cfg.Name}
	for j := 0; j < p.n; j++ {
		if j != p.id {
			eff.AddSend(j, m)
			p.msgsSent++
		}
	}
}

// Deliver implements the comparator's message handlers.
func (p *Proc) Deliver(from int, msg proto.Message) proto.Effects {
	if from == p.id {
		panic(fmt.Sprintf("%s: process %d received message from itself", p.cfg.Name, p.id))
	}
	var eff proto.Effects
	switch m := msg.(type) {
	case Req:
		p.adopt(m.TS, m.Val)
		ack := Ack{
			RID: m.RID, Phase: m.Phase, TS: p.ts, Val: p.val,
			Bits: p.bits, Name: p.cfg.Name, Initiator: from,
		}
		if p.cfg.EchoAll {
			for j := 0; j < p.n; j++ {
				if j != p.id {
					eff.AddSend(j, ack)
					p.msgsSent++
				}
			}
		} else {
			eff.AddSend(from, ack)
			p.msgsSent++
		}
	case Ack:
		p.adopt(m.TS, m.Val) // gossip
		c := p.cur
		if c == nil || m.Initiator != p.id || c.rid != m.RID || c.phase != m.Phase {
			break
		}
		c.acks[from] = true
		if c.kind == proto.OpRead && c.phase == 1 && m.TS > c.maxTS {
			c.maxTS = m.TS
			c.maxVal = m.Val.Clone()
		}
	default:
		panic(fmt.Sprintf("%s: process %d received foreign message %T", p.cfg.Name, p.id, msg))
	}
	p.finishIfQuorum(&eff)
	return eff
}

// finishIfQuorum advances the phase schedule once a quorum acknowledged.
func (p *Proc) finishIfQuorum(eff *proto.Effects) {
	c := p.cur
	if c == nil || len(c.acks) < p.quorum() {
		return
	}
	if c.kind == proto.OpRead && c.phase == 1 {
		// End of the query phase: fix the value to write back/return.
		p.adopt(c.maxTS, c.maxVal)
	}
	if c.phase >= c.last {
		p.cur = nil
		// Rounds = the configured phase count: each phase is one
		// broadcast/quorum-ack exchange.
		switch c.kind {
		case proto.OpWrite:
			eff.AddDoneRounds(c.op, proto.OpWrite, nil, int(c.last))
		case proto.OpRead:
			eff.AddDoneRounds(c.op, proto.OpRead, c.maxVal.Clone(), int(c.last))
		}
		return
	}
	c.phase++
	c.acks = map[int]bool{p.id: true}
	p.broadcastPhase(eff)
	p.finishIfQuorum(eff)
}

// LocalMemoryBits reports the declared storage of the source algorithm.
func (p *Proc) LocalMemoryBits() int { return p.cfg.MemoryBits(p.n) }

// MsgsSent returns the number of messages this process has emitted.
func (p *Proc) MsgsSent() int { return p.msgsSent }

// Idle reports whether no operation is in flight.
func (p *Proc) Idle() bool { return p.cur == nil }

var _ proto.Process = (*Proc)(nil)
