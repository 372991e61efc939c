package cluster

import (
	"errors"
	"testing"

	"twobitreg/internal/proto"
)

// fakeMsg is the scripted process's only message; Done completes the
// operation in flight at the receiver.
type fakeMsg struct{ Done bool }

func (fakeMsg) TypeName() string { return "FAKE" }
func (fakeMsg) ControlBits() int { return 0 }
func (fakeMsg) DataBytes() int   { return 0 }

// fakeProc is a scripted proto.Process: every start emits one send and
// parks until a Done message arrives. Like the hot-path state machines it
// recycles its Sends buffer on every call, and like them it panics on a
// second invocation while one is in flight or on a foreign write.
type fakeProc struct {
	id, writer int
	cur        proto.OpID
	busy       bool
	started    []proto.OpID
	sends      []proto.Send
}

func (p *fakeProc) ID() int              { return p.id }
func (p *fakeProc) LocalMemoryBits() int { return 0 }

func (p *fakeProc) start(op proto.OpID) proto.Effects {
	if p.busy {
		panic("fakeProc: invocation during an operation")
	}
	p.busy, p.cur = true, op
	p.started = append(p.started, op)
	p.sends = append(p.sends[:0], proto.Send{To: int(op), Msg: fakeMsg{}})
	return proto.Effects{Sends: p.sends}
}

func (p *fakeProc) StartRead(op proto.OpID) proto.Effects { return p.start(op) }

func (p *fakeProc) StartWrite(op proto.OpID, _ proto.Value) proto.Effects {
	if p.id != p.writer {
		panic("fakeProc: write on a non-writer")
	}
	return p.start(op)
}

func (p *fakeProc) Deliver(_ int, msg proto.Message) proto.Effects {
	p.sends = append(p.sends[:0], proto.Send{To: 100, Msg: fakeMsg{}})
	eff := proto.Effects{Sends: p.sends}
	if msg.(fakeMsg).Done && p.busy {
		p.busy = false
		eff.AddDone(p.cur, proto.OpRead, nil)
	}
	return eff
}

// TestSequentialQueuesInvocations pins the adapter alone, no goroutine: the
// second invocation reaches the process only once the first has completed,
// in the same step, and the sends of both inner calls survive the inner
// process recycling its buffer.
func TestSequentialQueuesInvocations(t *testing.T) {
	p := &fakeProc{}
	s := Sequential(p, 0)

	eff := s.Start("", 1, proto.OpWrite, nil)
	if len(p.started) != 1 || len(eff.Sends) != 1 || len(eff.Done) != 0 {
		t.Fatalf("first invocation: started %v, effects %+v", p.started, eff)
	}
	eff = s.Start("", 2, proto.OpRead, nil)
	if len(p.started) != 1 || len(eff.Sends) != 0 || len(eff.Done) != 0 {
		t.Fatalf("second invocation must queue behind the first: started %v, effects %+v", p.started, eff)
	}
	eff = s.Deliver(1, fakeMsg{})
	if len(p.started) != 1 || len(eff.Sends) != 1 {
		t.Fatalf("a message that completes nothing must start nothing: started %v, effects %+v", p.started, eff)
	}
	eff = s.Deliver(1, fakeMsg{Done: true})
	if len(p.started) != 2 || p.started[1] != 2 {
		t.Fatalf("completion of op 1 must start op 2: started %v", p.started)
	}
	if len(eff.Done) != 1 || eff.Done[0].Op != 1 {
		t.Fatalf("completions = %+v, want op 1", eff.Done)
	}
	// Deliver's send (to 100), then op 2's start send (to 2).
	if len(eff.Sends) != 2 || eff.Sends[0].To != 100 || eff.Sends[1].To != 2 {
		t.Fatalf("sends = %+v, want the delivery's and then the start's", eff.Sends)
	}
}

// TestSequentialNodeBoundaries drives the adapter through the event loop.
func TestSequentialNodeBoundaries(t *testing.T) {
	t.Run("foreign write never reaches the protocol", func(t *testing.T) {
		p := &fakeProc{id: 1}
		nd := NewKeyedNode(1, Sequential(p, 0), func(int, proto.Message) {})
		defer nd.Stop()
		if err := nd.Put("", proto.Value("x")); !errors.Is(err, ErrNotWriter) {
			t.Fatalf("foreign write: %v, want ErrNotWriter", err)
		}
		if len(p.started) != 0 {
			t.Fatalf("the protocol saw the foreign write: started %v", p.started)
		}
	})

	for _, tc := range []struct {
		name string
		halt func(*KeyedNode)
		want error
	}{
		{"stop", (*KeyedNode).Stop, ErrStopped},
		{"crash", (*KeyedNode).Crash, ErrCrashed},
		{"crash then stop", func(nd *KeyedNode) { nd.Crash(); nd.Stop() }, ErrCrashed},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			sent := make(chan struct{}, 1) // the one start that reaches the process
			nd := NewKeyedNode(0, Sequential(&fakeProc{}, 0), func(int, proto.Message) { sent <- struct{}{} })
			errs := make(chan error, 2)
			go func() { errs <- nd.Put("", proto.Value("in flight")) }()
			<-sent // the first operation is in flight and will never complete
			go func() { _, err := nd.Get(""); errs <- err }()
			// The second may be queued in the adapter or still in the
			// mailbox when the node halts; both must fail the same way.
			tc.halt(nd)
			for i := 0; i < 2; i++ {
				if err := <-errs; !errors.Is(err, tc.want) {
					t.Errorf("pending operation: %v, want %v", err, tc.want)
				}
			}
			if _, err := nd.Get(""); !errors.Is(err, tc.want) {
				t.Errorf("operation after the halt: %v, want %v", err, tc.want)
			}
			nd.Deliver(1, fakeMsg{}) // must not panic or block
		})
	}
}
