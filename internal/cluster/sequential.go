package cluster

import "twobitreg/internal/proto"

// Sequential places a single-register proto.Process behind the keyed
// runtime: the paper's processes are sequential, so client invocations
// queue behind the in-flight operation and the next one starts only once
// its predecessor completes. The register has no name — the key of Start
// is ignored — and writers is its writer set, which the node consults
// (IsWriter) to reject a foreign write before the protocol sees it. The
// adapter is pure: no goroutine, no lock; KeyedNode serializes every call.
// It adapts a plain register and nothing else: a durable or coalescing
// store (regmap.Node) is a KeyedProcess itself.
func Sequential(proc proto.Process, writers ...int) KeyedProcess {
	return &sequential{proc: proc, writers: writers}
}

type sequential struct {
	proc    proto.Process
	writers []int

	busy    bool
	pending []invocation
	// sends is the Effects.Sends scratch reused across steps: the inner
	// process may recycle its own Sends on re-entry, so pump copies them
	// out before starting the next queued operation.
	sends []proto.Send
}

type invocation struct {
	op   proto.OpID
	kind proto.OpKind
	val  proto.Value
}

func (s *sequential) ID() int { return s.proc.ID() }

func (s *sequential) IsWriter(_ string, pid int) bool {
	for _, w := range s.writers {
		if w == pid {
			return true
		}
	}
	return false
}

func (s *sequential) Start(_ string, op proto.OpID, kind proto.OpKind, val proto.Value) proto.Effects {
	s.pending = append(s.pending, invocation{op: op, kind: kind, val: val})
	return s.pump(proto.Effects{})
}

func (s *sequential) Deliver(from int, msg proto.Message) proto.Effects {
	return s.pump(s.proc.Deliver(from, msg))
}

// pump absorbs one step's effects and starts queued invocations freed by
// its completions, to a fixpoint. The sequential discipline guarantees a
// completion always belongs to the operation in flight.
func (s *sequential) pump(eff proto.Effects) proto.Effects {
	out := proto.Effects{Sends: s.sends[:0]}
	for {
		out.Sends = append(out.Sends, eff.Sends...)
		if len(eff.Done) > 0 {
			out.Done = append(out.Done, eff.Done...)
			s.busy = false
		}
		if s.busy || len(s.pending) == 0 {
			s.sends = out.Sends
			return out
		}
		next := s.pending[0]
		s.pending = s.pending[1:]
		s.busy = true
		if next.kind == proto.OpWrite {
			eff = s.proc.StartWrite(next.op, next.val)
		} else {
			eff = s.proc.StartRead(next.op)
		}
	}
}
