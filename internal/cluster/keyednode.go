package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"twobitreg/internal/proto"
)

// Errors returned by client operations.
var (
	// ErrCrashed is returned for operations on (or pending at) a crashed
	// process.
	ErrCrashed = errors.New("cluster: process crashed")
	// ErrStopped is returned for operations interrupted by Stop.
	ErrStopped = errors.New("cluster: cluster stopped")
	// ErrNotWriter is returned for writes through a process outside the
	// writer set. SWMR protocols would panic their event loop on such a
	// write; the node rejects it first.
	ErrNotWriter = errors.New("cluster: process is not in the writer set")
)

// KeyedProcess is the keyed sibling of proto.Process: a single-threaded
// state machine multiplexing many named registers at one process, with
// operations addressed by key (internal/regmap.Node is the implementation;
// Sequential places a single-register proto.Process behind the same
// contract). Unlike proto.Process, several client operations may be in
// flight at once — one per key — so completions are matched by operation
// id, not by the sequential-discipline invariant.
type KeyedProcess interface {
	// ID returns this process's index in [0, N).
	ID() int
	// Start begins a client operation on key; the completion surfaces in
	// this or a later Effects.Done carrying op.
	Start(key string, op proto.OpID, kind proto.OpKind, val proto.Value) proto.Effects
	// Deliver hands the process a message from peer `from`.
	Deliver(from int, msg proto.Message) proto.Effects
}

// KeyedNode is the runtime for one process — the repository's one mailbox
// event loop. The paper's process reacts to one received message or one
// client invocation at a time; the node is that sequential process on a
// goroutine: a transport (the TCP mesh per shard member under cmd/regnode,
// sibling mailboxes under Cluster) calls Deliver, clients call Get/Put, and
// every outbound message leaves through the injected send function. Any
// number of client operations may be pending at once (operations on one
// key serialize inside the KeyedProcess; different keys proceed
// independently), and the whole mailbox drains as one burst so a
// coalescing process gets its flush point per burst: a burst of one event
// is the per-event loop, and the end of a burst is the moment the mailbox
// was last seen empty. For a durable process that flush point is the
// commit point: one stable-storage sync per mailbox drain, after which the
// burst's frames and client replies leave together.
type KeyedNode struct {
	id   int
	proc KeyedProcess
	send func(to int, msg proto.Message)

	mu    sync.Mutex
	cond  *sync.Cond
	queue []keyedEvent
	// halted is nil while the node runs, then the verdict every pending
	// and future operation receives: ErrStopped or ErrCrashed.
	halted error
	wg     sync.WaitGroup

	opSeq atomic.Uint64
}

// keyedWriterSet is the optional writer-set introspection a KeyedProcess
// may offer (regmap.Node does); the node uses it to reject foreign writes
// at the client boundary instead of letting them reach the protocol.
type keyedWriterSet interface {
	IsWriter(key string, pid int) bool
}

// linkResetter is the slice of storage.Recoverable the event loop drives:
// the restart protocol's per-link reset.
type linkResetter interface {
	PeerRestarted(peer int) proto.Effects
}

// result is what a client operation ultimately receives.
type result struct {
	c   proto.Completion
	err error
}

// keyedEvent is a mailbox entry: a peer message, a keyed client operation,
// or an injected protocol step (the restart path).
type keyedEvent struct {
	// message fields
	from int
	msg  proto.Message
	// op fields (msg == nil and step == nil)
	op    proto.OpID
	key   string
	kind  proto.OpKind
	val   proto.Value
	reply chan result
	// step, when non-nil, runs against the process on the event loop.
	step func(KeyedProcess) proto.Effects
}

// NewKeyedNode starts the event loop around proc (already recovered from
// stable storage, if the deployment is durable). send is invoked from the
// event loop for every outbound message; inbound messages arrive via
// Deliver. Callers must Stop the node.
func NewKeyedNode(id int, proc KeyedProcess, send func(to int, msg proto.Message)) *KeyedNode {
	nd := &KeyedNode{id: id, proc: proc, send: send}
	nd.cond = sync.NewCond(&nd.mu)
	nd.wg.Add(1)
	go nd.run()
	return nd
}

// ID returns the node's process index within its quorum group.
func (nd *KeyedNode) ID() int { return nd.id }

// Deliver hands the node a message from peer `from`. Safe for concurrent
// use; this is the transport's inbound callback. Messages for a halted
// node are dropped, as toward a crashed process.
func (nd *KeyedNode) Deliver(from int, msg proto.Message) {
	_ = nd.enqueue(keyedEvent{from: from, msg: msg})
}

// PeerRestartedFunc enqueues the restart protocol's link reset for peer
// onto the event loop: the process's view of the peer resets and its
// backlog re-ships (storage.Recoverable.PeerRestarted, which the process
// must implement). pre, if non-nil, runs on the event loop immediately
// before the reset. Transports purge the frames still queued for the
// peer's dead incarnation there — in the same step, so no frame the
// process emitted before the reset can slip out after the purge and
// precede the re-shipped backlog. Returns false (pre will never run) if
// the node has halted.
func (nd *KeyedNode) PeerRestartedFunc(peer int, pre func()) bool {
	return nd.enqueue(keyedEvent{step: func(p KeyedProcess) proto.Effects {
		if pre != nil {
			pre()
		}
		return p.(linkResetter).PeerRestarted(peer)
	}}) == nil
}

// PeerRestarted is PeerRestartedFunc without a transport hook.
func (nd *KeyedNode) PeerRestarted(peer int) {
	nd.PeerRestartedFunc(peer, nil)
}

// Do performs one blocking client operation on key. Writes through a
// process outside the key's writer set surface as ErrNotWriter.
func (nd *KeyedNode) Do(key string, kind proto.OpKind, val proto.Value) (proto.Value, error) {
	c, err := nd.invoke(proto.OpID(nd.opSeq.Add(1)), key, kind, val)
	return c.Value, err
}

// invoke runs one operation under a caller-chosen id (Cluster numbers
// operations across its nodes so one recorder can tell them apart).
func (nd *KeyedNode) invoke(op proto.OpID, key string, kind proto.OpKind, val proto.Value) (proto.Completion, error) {
	reply := make(chan result, 1)
	if err := nd.enqueue(keyedEvent{op: op, key: key, kind: kind, val: val, reply: reply}); err != nil {
		return proto.Completion{}, err
	}
	r := <-reply
	return r.c, r.err
}

// Get reads key through this node.
func (nd *KeyedNode) Get(key string) (proto.Value, error) {
	return nd.Do(key, proto.OpRead, nil)
}

// Put writes val under key through this node.
func (nd *KeyedNode) Put(key string, val proto.Value) error {
	_, err := nd.Do(key, proto.OpWrite, val)
	return err
}

// Stop shuts the node down, failing pending and future operations with
// ErrStopped. It returns once the event loop has exited; idempotent.
func (nd *KeyedNode) Stop() { nd.halt(ErrStopped) }

// Crash is Stop with the crash verdict: the node processes nothing
// further, and its pending and future operations fail with ErrCrashed. The
// first verdict sticks — stopping a crashed node leaves it crashed.
func (nd *KeyedNode) Crash() { nd.halt(ErrCrashed) }

func (nd *KeyedNode) halt(cause error) {
	nd.mu.Lock()
	if nd.halted == nil {
		nd.halted = cause
		nd.cond.Broadcast()
	}
	nd.mu.Unlock()
	nd.wg.Wait()
}

// enqueue adds ev to the mailbox, or returns the halt verdict.
func (nd *KeyedNode) enqueue(ev keyedEvent) error {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if nd.halted != nil {
		return nd.halted
	}
	nd.queue = append(nd.queue, ev)
	nd.cond.Signal()
	return nil
}

// nextBatch blocks until events are available and takes the whole mailbox:
// the batch is the coalescing burst — every keyed frame its events produce
// toward one peer ships as one multi-frame when the store coalesces. On a
// halt it returns the verdict and whatever was still queued. spent is the
// previous batch, handed back to become the next mailbox: the two slices
// swap, so a burst never re-grows its queue from nothing.
func (nd *KeyedNode) nextBatch(spent []keyedEvent) ([]keyedEvent, error) {
	clear(spent) // drop the processed messages and reply channels
	nd.mu.Lock()
	defer nd.mu.Unlock()
	for len(nd.queue) == 0 && nd.halted == nil {
		nd.cond.Wait()
	}
	batch := nd.queue
	nd.queue = spent[:0]
	return batch, nd.halted
}

func (nd *KeyedNode) run() {
	defer nd.wg.Done()
	// replies is touched only by the event loop: several operations (on
	// distinct keys) may be pending at once, matched back by op id.
	replies := make(map[proto.OpID]chan result)

	route := func(eff proto.Effects) {
		for _, s := range eff.Sends {
			nd.send(s.To, s.Msg)
		}
		for _, d := range eff.Done {
			reply, ok := replies[d.Op]
			if !ok {
				continue
			}
			delete(replies, d.Op)
			reply <- result{c: d}
		}
	}

	var batch []keyedEvent
	for {
		var halted error
		batch, halted = nd.nextBatch(batch)
		if halted != nil {
			// Fail started and still-queued operations alike, so no
			// client blocks forever.
			for op, reply := range replies {
				delete(replies, op)
				reply <- result{err: halted}
			}
			for _, ev := range batch {
				if ev.msg == nil && ev.step == nil {
					ev.reply <- result{err: halted}
				}
			}
			return
		}
		for _, ev := range batch {
			switch {
			case ev.step != nil:
				route(ev.step(nd.proc))
			case ev.msg != nil:
				route(nd.proc.Deliver(ev.from, ev.msg))
			default:
				// The writer-set boundary: a foreign write must not reach
				// the protocol (the state machines treat that as a
				// harness bug).
				if ev.kind == proto.OpWrite {
					if ws, ok := nd.proc.(keyedWriterSet); ok && !ws.IsWriter(ev.key, nd.id) {
						ev.reply <- result{err: fmt.Errorf("%w: process %d, key %q", ErrNotWriter, nd.id, ev.key)}
						continue
					}
				}
				replies[ev.op] = ev.reply
				route(nd.proc.Start(ev.key, ev.op, ev.kind, ev.val))
			}
		}
		// End of burst: grant the process its flush tick (no-op for
		// non-coalescing processes).
		if f, ok := nd.proc.(proto.Flusher); ok && f.PendingFlush() {
			route(f.Flush())
		}
	}
}
