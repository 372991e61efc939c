package transport_test

import (
	"math/rand"
	"testing"

	"twobitreg/internal/metrics"
	"twobitreg/internal/proto"
	"twobitreg/internal/sim"
	"twobitreg/internal/transport"
)

// echoProc delivers nothing but records what it received; on Ping it sends
// Pong back. It is a minimal proto.Process for transport-level tests.
type echoProc struct {
	id       int
	received []string
}

type ping struct{}

func (ping) TypeName() string { return "PING" }
func (ping) ControlBits() int { return 3 }
func (ping) DataBytes() int   { return 1 }

type pong struct{}

func (pong) TypeName() string { return "PONG" }
func (pong) ControlBits() int { return 5 }
func (pong) DataBytes() int   { return 0 }

func (p *echoProc) ID() int { return p.id }
func (p *echoProc) Deliver(from int, msg proto.Message) proto.Effects {
	p.received = append(p.received, msg.TypeName())
	var eff proto.Effects
	if _, isPing := msg.(ping); isPing {
		eff.AddSend(from, pong{})
	}
	return eff
}
func (p *echoProc) StartRead(op proto.OpID) proto.Effects {
	// Used as the injection point: broadcast a ping.
	var eff proto.Effects
	eff.AddSend(1-p.id, ping{})
	return eff
}
func (p *echoProc) StartWrite(op proto.OpID, v proto.Value) proto.Effects { return proto.Effects{} }
func (p *echoProc) LocalMemoryBits() int                                  { return 0 }

func newEchoNet(t *testing.T, opts ...transport.Option) (*transport.SimNet, []*echoProc, *sim.Scheduler) {
	t.Helper()
	sched := sim.New(1)
	a, b := &echoProc{id: 0}, &echoProc{id: 1}
	net := transport.NewSimNet(sched, []proto.Process{a, b}, opts...)
	return net, []*echoProc{a, b}, sched
}

func TestSimNetPingPong(t *testing.T) {
	t.Parallel()
	col := &metrics.Collector{}
	net, procs, sched := newEchoNet(t, transport.WithCollector(col))
	net.StartRead(0, 1) // p0 pings p1
	net.Run()
	if len(procs[1].received) != 1 || procs[1].received[0] != "PING" {
		t.Fatalf("p1 received %v, want [PING]", procs[1].received)
	}
	if len(procs[0].received) != 1 || procs[0].received[0] != "PONG" {
		t.Fatalf("p0 received %v, want [PONG]", procs[0].received)
	}
	if sched.Now() != 2 {
		t.Fatalf("round trip ended at %v, want 2 (default Δ=1)", sched.Now())
	}
	s := col.Snapshot()
	if s.TotalMsgs != 2 || s.ControlBits != 8 || s.DataBytes != 1 {
		t.Fatalf("collector saw %+v", s)
	}
}

func TestSimNetCrashStopsDelivery(t *testing.T) {
	t.Parallel()
	net, procs, _ := newEchoNet(t)
	net.Crash(1)
	net.StartRead(0, 1)
	net.Run()
	if len(procs[1].received) != 0 {
		t.Fatal("crashed process received a message")
	}
	if len(procs[0].received) != 0 {
		t.Fatal("sender got a reply from a crashed process")
	}
	if !net.Crashed(1) || net.Crashed(0) {
		t.Fatal("crash bookkeeping wrong")
	}
}

func TestSimNetCrashedProcessCannotStartOps(t *testing.T) {
	t.Parallel()
	net, procs, _ := newEchoNet(t)
	net.Crash(0)
	net.StartRead(0, 1)
	net.Run()
	if len(procs[1].received) != 0 {
		t.Fatal("crashed process sent a message")
	}
}

func TestSimNetInFlightAccounting(t *testing.T) {
	t.Parallel()
	net, _, sched := newEchoNet(t)
	net.StartRead(0, 1)
	if got := net.InFlight(0, 1); got != 1 {
		t.Fatalf("in-flight(0->1) = %d, want 1", got)
	}
	sched.RunUntil(1)
	if got := net.InFlight(0, 1); got != 0 {
		t.Fatalf("in-flight(0->1) after delivery = %d, want 0", got)
	}
	if got := net.InFlight(1, 0); got != 1 {
		t.Fatalf("in-flight(1->0) = %d, want 1 (the pong)", got)
	}
	net.Run()
}

func TestSimNetPostDeliveryHook(t *testing.T) {
	t.Parallel()
	calls := 0
	net, _, _ := newEchoNet(t, transport.WithPostDelivery(func() { calls++ }))
	net.StartRead(0, 1)
	net.Run()
	if calls != 2 { // ping delivery + pong delivery
		t.Fatalf("post-delivery hook ran %d times, want 2", calls)
	}
}

func TestDelayModels(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(1))
	fixed := transport.FixedDelay(3)
	for i := 0; i < 10; i++ {
		if d := fixed(0, 1, rng); d != 3 {
			t.Fatalf("FixedDelay = %v, want 3", d)
		}
	}
	uni := transport.UniformDelay(1, 2)
	for i := 0; i < 100; i++ {
		if d := uni(0, 1, rng); d < 1 || d > 2 {
			t.Fatalf("UniformDelay = %v, want in [1,2]", d)
		}
	}
	alt := transport.AlternatingDelay(1, 5)
	if d := alt(0, 1, rng); d != 5 {
		t.Fatalf("first AlternatingDelay = %v, want slow 5", d)
	}
	if d := alt(0, 1, rng); d != 1 {
		t.Fatalf("second AlternatingDelay = %v, want fast 1", d)
	}
	// Independent per ordered pair.
	if d := alt(1, 0, rng); d != 5 {
		t.Fatalf("other pair's first delay = %v, want slow 5", d)
	}
}

func TestUniformDelayRejectsInvertedBounds(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	transport.UniformDelay(5, 1)
}

func TestSimNetSelfSendPanics(t *testing.T) {
	t.Parallel()
	sched := sim.New(1)
	bad := &selfSender{}
	net := transport.NewSimNet(sched, []proto.Process{bad})
	defer func() {
		if recover() == nil {
			t.Fatal("self-send did not panic")
		}
	}()
	net.StartRead(0, 1)
}

type selfSender struct{}

func (*selfSender) ID() int { return 0 }
func (*selfSender) Deliver(int, proto.Message) proto.Effects {
	return proto.Effects{}
}
func (*selfSender) StartRead(proto.OpID) proto.Effects {
	var eff proto.Effects
	eff.AddSend(0, ping{})
	return eff
}
func (*selfSender) StartWrite(proto.OpID, proto.Value) proto.Effects { return proto.Effects{} }
func (*selfSender) LocalMemoryBits() int                             { return 0 }

func TestSimNetDeliveryObserver(t *testing.T) {
	t.Parallel()
	type seen struct {
		from, to int
		name     string
		at       float64
	}
	var log []seen
	var net *transport.SimNet
	net, procs, _ := newEchoNet(t, transport.WithDeliveryObserver(
		func(from, to int, msg proto.Message, at float64) proto.Message {
			log = append(log, seen{from, to, msg.TypeName(), at})
			return msg
		}))
	net.StartRead(0, 1)
	net.Run()
	want := []seen{{0, 1, "PING", 1}, {1, 0, "PONG", 2}}
	if len(log) != len(want) {
		t.Fatalf("observer saw %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("observer event %d = %v, want %v", i, log[i], want[i])
		}
	}
	_ = procs
}

// TestSimNetObserverReplacesMessage: the recipient steps on the message the
// hook returns, not the one sent — the seam through which the explorer
// delivers what the wire codec decoded.
func TestSimNetObserverReplacesMessage(t *testing.T) {
	t.Parallel()
	net, procs, _ := newEchoNet(t, transport.WithDeliveryObserver(
		func(_, _ int, msg proto.Message, _ float64) proto.Message {
			if _, isPing := msg.(ping); isPing {
				return pong{}
			}
			return msg
		}))
	net.StartRead(0, 1)
	net.Run()
	if len(procs[1].received) != 1 || procs[1].received[0] != "PONG" {
		t.Fatalf("p1 received %v, want the hook's [PONG]", procs[1].received)
	}
	if len(procs[0].received) != 0 {
		t.Fatalf("p0 received %v: p1 answered the PING the hook replaced", procs[0].received)
	}
}

// TestSimNetObserverCrashDropsMessage: crashing the recipient from inside
// the delivery observer must drop that very message — the mechanism behind
// the explorer's crash-at-protocol-phase triggers.
func TestSimNetObserverCrashDropsMessage(t *testing.T) {
	t.Parallel()
	var net *transport.SimNet
	var opts []transport.Option
	opts = append(opts, transport.WithDeliveryObserver(
		func(_, to int, msg proto.Message, _ float64) proto.Message {
			if to == 1 {
				net.Crash(1)
			}
			return msg
		}))
	net, procs, _ := newEchoNet(t, opts...)
	net.StartRead(0, 1)
	net.Run()
	if len(procs[1].received) != 0 {
		t.Fatalf("p1 received %v despite crashing in the observer", procs[1].received)
	}
	if len(procs[0].received) != 0 {
		t.Fatal("a dropped ping still produced a pong")
	}
}

// TestSimNetReviveFencesInFlight: messages crossing a crash—revive boundary
// in either direction are fenced out — the in-memory analogue of a restart
// killing a TCP connection — while the successor communicates normally.
func TestSimNetReviveFencesInFlight(t *testing.T) {
	t.Parallel()
	net, procs, sched := newEchoNet(t)

	// Inbound fence: a ping in flight to p1 when p1 is reborn must vanish.
	net.StartRead(0, 1) // ping departs at t=0, lands at t=1
	net.CrashAt(0.4, 1)
	fresh1 := &echoProc{id: 1}
	sched.At(0.6, func() { net.Revive(1, fresh1) })
	net.Run()
	if len(fresh1.received) != 0 {
		t.Fatalf("revived p1 received %v from its predecessor's link", fresh1.received)
	}
	if len(procs[0].received) != 0 {
		t.Fatalf("p0 received %v, want nothing (ping was fenced)", procs[0].received)
	}
	if net.InFlight(0, 1) != 0 || net.Crashed(1) {
		t.Fatalf("post-revival state: inFlight=%d crashed=%v", net.InFlight(0, 1), net.Crashed(1))
	}

	// Outbound fence: a pong sent by an incarnation that dies before it
	// lands must not reach the live peer either.
	net.StartRead(0, 2) // ping at t; pong departs t+1, lands t+2
	sched.After(1.5, func() {
		net.Crash(1)
		net.Revive(1, &echoProc{id: 1})
	})
	net.Run()
	if len(procs[0].received) != 0 {
		t.Fatalf("p0 received %v from a dead incarnation", procs[0].received)
	}

	// The successor is a full participant: a fresh round trip completes.
	net.StartRead(0, 3)
	net.Run()
	if len(procs[0].received) != 1 || procs[0].received[0] != "PONG" {
		t.Fatalf("p0 received %v after revival, want [PONG]", procs[0].received)
	}
}

func TestSimNetRevivePanics(t *testing.T) {
	t.Parallel()
	t.Run("not crashed", func(t *testing.T) {
		net, _, _ := newEchoNet(t)
		defer func() {
			if recover() == nil {
				t.Fatal("Revive of a live process did not panic")
			}
		}()
		net.Revive(1, &echoProc{id: 1})
	})
	t.Run("wrong id", func(t *testing.T) {
		net, _, _ := newEchoNet(t)
		net.Crash(1)
		defer func() {
			if recover() == nil {
				t.Fatal("Revive with mismatched ID did not panic")
			}
		}()
		net.Revive(1, &echoProc{id: 0})
	})
}

// TestSimNetStep: Step routes the produced effects like a delivery and is a
// no-op on crashed processes.
func TestSimNetStep(t *testing.T) {
	t.Parallel()
	hooks := 0
	net, procs, _ := newEchoNet(t, transport.WithPostDelivery(func() { hooks++ }))
	net.Step(0, func(p proto.Process) proto.Effects {
		var eff proto.Effects
		eff.AddSend(1, ping{})
		return eff
	})
	net.Run()
	if len(procs[1].received) != 1 || procs[1].received[0] != "PING" {
		t.Fatalf("p1 received %v, want [PING]", procs[1].received)
	}
	if hooks == 0 {
		t.Fatal("Step did not run the post-delivery hook")
	}
	net.Crash(0)
	net.Step(0, func(p proto.Process) proto.Effects {
		t.Fatal("Step ran its body on a crashed process")
		return proto.Effects{}
	})
}
