// Package transport moves protocol messages between processes.
//
// It provides two carriers:
//
//   - SimNet: deterministic virtual-time delivery over a sim.Scheduler, used
//     for every quantitative experiment and the schedule explorer (exact Δ
//     timing, seeded reordering).
//   - Mesh (tcpnet.go): one process's endpoint in a fully connected TCP
//     cluster, delivering length-framed messages through an injected Codec
//     (the two-bit wire codec, internal/wire) on connections opened by an
//     incarnation handshake. It is what cmd/regnode and bench/ run.
//
// AppendFrame and FrameReader (frame.go) own the u32 length prefix that the
// mesh and the client protocol share.
package transport

import (
	"fmt"

	"twobitreg/internal/metrics"
	"twobitreg/internal/proto"
	"twobitreg/internal/sim"
)

// CompletionFn observes a finished operation: which process completed it,
// the completion record, and the virtual time at which it completed.
type CompletionFn func(pid int, c proto.Completion, at float64)

// DeliveryFn sees a message about to be delivered and returns the message
// the recipient's Deliver step gets: msg itself, or what a codec makes of
// it — the schedule explorer hands keyed-store processes the frame that
// crossed the wire encoding. If it crashes the recipient (fault injection),
// the message is dropped — that is how the schedule explorer realizes
// crash-at-protocol-phase triggers.
type DeliveryFn func(from, to int, msg proto.Message, at float64) proto.Message

// SimNet routes messages between proto.Process state machines in virtual
// time. It owns effect routing: processes never talk to the network
// directly — every Effects value returned by a process is dispatched here.
//
// Crash semantics follow the paper's crash-stop model: a crashed process
// takes no further steps; messages already in flight to it are discarded at
// delivery time, while its own previously sent messages still arrive.
type SimNet struct {
	sched     *sim.Scheduler
	procs     []proto.Process
	delay     DelayFn
	crashed   []bool
	col       *metrics.Collector
	onDone    CompletionFn
	onDeliver DeliveryFn
	priority  PriorityFn
	// postDelivery, if set, runs after every delivery event — the hook the
	// invariant checkers use to inspect global state between atomic steps.
	postDelivery func()
	// inFlight[from][to] counts undelivered messages per ordered pair,
	// exposed for Property P1 assertions in tests.
	inFlight [][]int
	// flushWindow, when positive, grants proto.Flusher processes a flush
	// tick flushWindow after a step leaves anything held (PendingFlush):
	// frames coalesce across every delivery inside the window, and a
	// durable process commits there. flushArmed dedups the pending tick.
	flushWindow float64
	flushArmed  []bool
	// fifo, when true, clamps per-link delivery times to be monotone so
	// each ordered pair delivers in send order. It is enabled automatically
	// when any process declares proto.FIFOLinks (the batched multi-writer
	// register); the delay model still shapes timing, but a straggler
	// holds back the messages queued behind it on its link — exactly a
	// stream transport's head-of-line blocking.
	fifo   bool
	lastAt [][]float64
	// freeDeliveries recycles delivery event records: one send used to
	// allocate a capturing closure; the pooled struct implements sim.Event
	// so the scheduler's hot path stays allocation-free per message.
	freeDeliveries []*deliveryEvent
	// incs, once any process has been revived (Revive), carries each pid's
	// incarnation number. Deliveries are stamped with both endpoints'
	// incarnations at send time and dropped when either end has since been
	// reborn — the fence a real transport provides by killing a crashed
	// process's connections. nil until the first revival, so pure
	// crash-stop runs are byte-identical to before the fencing existed.
	incs []uint32
}

// deliveryEvent is one in-flight message, scheduled on the simulator as a
// sim.Event. It returns itself to the pool before the delivery body runs,
// so re-entrant sends can reuse it immediately after.
type deliveryEvent struct {
	net      *SimNet
	from, to int
	msg      proto.Message
	// fromInc/toInc fence the delivery against revivals at either end
	// (stamped at send time; see SimNet.incs).
	fromInc, toInc uint32
}

// Run implements sim.Event: deliver the message.
func (d *deliveryEvent) Run() {
	n, from, to, msg := d.net, d.from, d.to, d.msg
	fromInc, toInc := d.fromInc, d.toInc
	d.net, d.msg = nil, nil
	n.freeDeliveries = append(n.freeDeliveries, d)
	n.deliver(from, to, msg, fromInc, toInc)
}

// fifoEps separates two same-link deliveries that would otherwise land on
// the same virtual instant (where tie-randomizing adversaries could swap
// them).
const fifoEps = 1e-9

// Option configures a SimNet.
type Option func(*SimNet)

// WithDelay sets the delay model. Default: FixedDelay(1), i.e. Δ = 1.
func WithDelay(d DelayFn) Option { return func(n *SimNet) { n.delay = d } }

// WithCollector attaches a metrics collector that sees every send.
func WithCollector(c *metrics.Collector) Option { return func(n *SimNet) { n.col = c } }

// WithCompletion attaches a completion observer.
func WithCompletion(f CompletionFn) Option { return func(n *SimNet) { n.onDone = f } }

// WithPostDelivery attaches a hook run after every delivery event.
func WithPostDelivery(f func()) Option { return func(n *SimNet) { n.postDelivery = f } }

// WithDeliveryObserver attaches a hook run immediately before each delivery;
// the recipient gets the message it returns.
func WithDeliveryObserver(f DeliveryFn) Option { return func(n *SimNet) { n.onDeliver = f } }

// WithFlushWindow grants proto.Flusher processes a flush tick w virtual
// time units after any step that leaves frames buffered (deduplicated: one
// armed tick per process). Processes that never buffer are unaffected.
func WithFlushWindow(w float64) Option { return func(n *SimNet) { n.flushWindow = w } }

// PriorityFn assigns a tie-break priority to a delivery at scheduling time;
// among deliveries landing on the same virtual instant, lower values are
// delivered first (sim.Scheduler.AtTie). The d-bounded PCT adversary
// implements its per-process priorities and change points here.
type PriorityFn func(from, to int) uint64

// WithTiePriority routes every delivery through sim.Scheduler.AtTie with the
// priority fn assigns. Without it, equal-timestamp deliveries follow the
// scheduler's default tie rule.
func WithTiePriority(f PriorityFn) Option { return func(n *SimNet) { n.priority = f } }

// NewSimNet wires procs to the scheduler. procs[i].ID() must equal i.
func NewSimNet(sched *sim.Scheduler, procs []proto.Process, opts ...Option) *SimNet {
	n := &SimNet{
		sched:   sched,
		procs:   procs,
		delay:   FixedDelay(1),
		crashed: make([]bool, len(procs)),
	}
	n.inFlight = make([][]int, len(procs))
	for i := range n.inFlight {
		n.inFlight[i] = make([]int, len(procs))
	}
	for i, p := range procs {
		if p.ID() != i {
			panic(fmt.Sprintf("transport: procs[%d].ID() = %d", i, p.ID()))
		}
		if f, ok := p.(proto.FIFOLinks); ok && f.RequiresFIFOLinks() {
			n.fifo = true
		}
	}
	if n.fifo {
		n.lastAt = make([][]float64, len(procs))
		for i := range n.lastAt {
			n.lastAt[i] = make([]float64, len(procs))
		}
	}
	for _, o := range opts {
		o(n)
	}
	return n
}

// FIFO reports whether per-link FIFO delivery is active.
func (n *SimNet) FIFO() bool { return n.fifo }

// Scheduler returns the underlying scheduler.
func (n *SimNet) Scheduler() *sim.Scheduler { return n.sched }

// Proc returns process pid's state machine (for test inspection).
func (n *SimNet) Proc(pid int) proto.Process { return n.procs[pid] }

// N returns the number of processes.
func (n *SimNet) N() int { return len(n.procs) }

// Crash marks pid crashed. Idempotent.
func (n *SimNet) Crash(pid int) { n.crashed[pid] = true }

// Crashed reports whether pid has crashed.
func (n *SimNet) Crashed(pid int) bool { return n.crashed[pid] }

// inc returns pid's current incarnation (0 until the first Revive anywhere).
func (n *SimNet) inc(pid int) uint32 {
	if n.incs == nil {
		return 0
	}
	return n.incs[pid]
}

// Revive replaces a crashed process with its recovered successor p and
// clears the crash mark. Messages sent to or by the previous incarnation —
// including any still in flight — are fenced off and silently dropped at
// delivery time; a previously armed flush tick for the old incarnation is
// likewise disarmed. p.ID() must equal pid. The caller is responsible for
// the state-level reset handshake (storage.Recoverable.PeerRestarted on
// both sides); Revive only swaps the transport endpoint.
func (n *SimNet) Revive(pid int, p proto.Process) {
	if !n.crashed[pid] {
		panic(fmt.Sprintf("transport: Revive(%d) but process is not crashed", pid))
	}
	if p.ID() != pid {
		panic(fmt.Sprintf("transport: Revive(%d) with process ID %d", pid, p.ID()))
	}
	if n.incs == nil {
		n.incs = make([]uint32, len(n.procs))
	}
	n.incs[pid]++
	n.crashed[pid] = false
	n.procs[pid] = p
	if n.flushArmed != nil {
		// Any pending flush tick was armed for the dead incarnation and will
		// fence itself out when it fires; re-open the slot so the successor
		// can arm its own tick immediately.
		n.flushArmed[pid] = false
	}
}

// Step runs fn against process pid's state machine outside any delivery —
// the hook for restart-time resets (PeerRestarted) that must route their
// effects like ordinary protocol steps. No-op when pid is crashed.
func (n *SimNet) Step(pid int, fn func(proto.Process) proto.Effects) {
	if n.crashed[pid] {
		return
	}
	n.route(pid, fn(n.procs[pid]))
	if n.postDelivery != nil {
		n.postDelivery()
	}
}

// InFlight returns the number of undelivered messages from->to.
func (n *SimNet) InFlight(from, to int) int { return n.inFlight[from][to] }

// StartRead injects a read invocation at process pid.
func (n *SimNet) StartRead(pid int, op proto.OpID) {
	if n.crashed[pid] {
		return
	}
	n.route(pid, n.procs[pid].StartRead(op))
}

// StartWrite injects a write invocation at process pid.
func (n *SimNet) StartWrite(pid int, op proto.OpID, v proto.Value) {
	if n.crashed[pid] {
		return
	}
	n.route(pid, n.procs[pid].StartWrite(op, v))
}

// StartReadAt schedules a read invocation at virtual time t.
func (n *SimNet) StartReadAt(t float64, pid int, op proto.OpID) {
	n.sched.At(t, func() { n.StartRead(pid, op) })
}

// StartWriteAt schedules a write invocation at virtual time t.
func (n *SimNet) StartWriteAt(t float64, pid int, op proto.OpID, v proto.Value) {
	n.sched.At(t, func() { n.StartWrite(pid, op, v) })
}

// CrashAt schedules a crash of pid at virtual time t.
func (n *SimNet) CrashAt(t float64, pid int) {
	n.sched.At(t, func() { n.Crash(pid) })
}

// Run drives the simulation to quiescence and returns events executed.
func (n *SimNet) Run() int64 { return n.sched.Run() }

// route dispatches the effects produced by process from.
func (n *SimNet) route(from int, eff proto.Effects) {
	for _, s := range eff.Sends {
		n.send(from, s.To, s.Msg)
	}
	for _, d := range eff.Done {
		if n.onDone != nil {
			n.onDone(from, d, n.sched.Now())
		}
	}
	n.armFlush(from)
}

// armFlush schedules the flush tick for a proto.Flusher process that left
// frames buffered, one armed tick per process at a time.
func (n *SimNet) armFlush(pid int) {
	if n.flushWindow <= 0 || n.crashed[pid] {
		return
	}
	f, ok := n.procs[pid].(proto.Flusher)
	if !ok || !f.PendingFlush() {
		return
	}
	if n.flushArmed == nil {
		n.flushArmed = make([]bool, len(n.procs))
	}
	if n.flushArmed[pid] {
		return
	}
	n.flushArmed[pid] = true
	inc0 := n.inc(pid)
	n.sched.After(n.flushWindow, func() {
		if n.inc(pid) != inc0 {
			// The tick belongs to a dead incarnation: its captured Flusher is
			// the pre-crash state machine, whose buffered frames must not
			// leak into the successor's links. Revive already re-opened the
			// armed slot; do not touch the flag.
			return
		}
		n.flushArmed[pid] = false
		if n.crashed[pid] {
			return
		}
		n.route(pid, f.Flush())
	})
}

func (n *SimNet) send(from, to int, msg proto.Message) {
	if to == from {
		panic(fmt.Sprintf("transport: process %d sent %s to itself", from, msg.TypeName()))
	}
	if to < 0 || to >= len(n.procs) {
		panic(fmt.Sprintf("transport: send to unknown process %d", to))
	}
	if n.col != nil {
		n.col.OnSend(msg)
	}
	n.inFlight[from][to]++
	d := n.delay(from, to, n.sched.Rand())
	at := n.sched.Now() + d
	if n.fifo {
		if at <= n.lastAt[from][to] {
			at = n.lastAt[from][to] + fifoEps
		}
		n.lastAt[from][to] = at
	}
	ev := n.allocDelivery()
	ev.net, ev.from, ev.to, ev.msg = n, from, to, msg
	ev.fromInc, ev.toInc = n.inc(from), n.inc(to)
	if n.priority != nil {
		n.sched.AtTieEvent(at, n.priority(from, to), ev)
	} else {
		n.sched.AtEvent(at, ev)
	}
}

// allocDelivery returns a recycled (or fresh) delivery event record.
func (n *SimNet) allocDelivery() *deliveryEvent {
	if k := len(n.freeDeliveries); k > 0 {
		ev := n.freeDeliveries[k-1]
		n.freeDeliveries = n.freeDeliveries[:k-1]
		return ev
	}
	return &deliveryEvent{}
}

// deliver is the delivery body, run at the message's scheduled instant.
func (n *SimNet) deliver(from, to int, msg proto.Message, fromInc, toInc uint32) {
	n.inFlight[from][to]--
	if fromInc != n.inc(from) || toInc != n.inc(to) {
		return // incarnation fence: one endpoint was reborn since the send
	}
	if n.crashed[to] {
		return // crash-stop: the recipient takes no further steps
	}
	if n.onDeliver != nil {
		msg = n.onDeliver(from, to, msg, n.sched.Now())
		if n.crashed[to] {
			return // the observer crashed the recipient mid-phase
		}
	}
	eff := n.procs[to].Deliver(from, msg)
	n.route(to, eff)
	if n.postDelivery != nil {
		n.postDelivery()
	}
}
