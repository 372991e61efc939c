package main

import (
	"encoding/json"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"twobitreg/internal/cluster"
	"twobitreg/internal/proto"
	"twobitreg/internal/regmap"
	"twobitreg/internal/shard"
	"twobitreg/internal/storage"
	"twobitreg/internal/wire"
)

// The tracer measures the serving path's layers from outside: it decorates
// the seams the public constructors already inject (the mesh's deliver
// closure, the node's send closure, the shard.Handler, the StableStorage,
// the cluster.KeyedProcess) and touches no package under internal/.
//
// Every decoration feeds two things. Counters (work done, time busy, time
// waited) cover the whole run and are read at the edges of the measured
// window. Spans are kept in memory only for a short slice at the start of
// the window — a full window of the busiest workload is several million
// spans — and are written to bench/out/trace-<workload>.json afterwards.

// Per-member counters, indexed into nodeTrace.c.
const (
	cEvents    = iota // mailbox events processed (client ops + peer messages)
	cSteps            // calls into the regmap state machine (events + flushes)
	cStepNs           // time inside those calls, sync children included
	cFlushes          // coalescer flush steps
	cMsgs             // peer messages dequeued
	cMailboxNs        // sum over those messages of dequeue - enqueue
	cAppends          // StableStorage.Append calls
	cSyncs            // StableStorage.Sync calls that had something to write
	cSyncNs           // time inside them
	cSends            // send-closure calls (one per outbound frame)
	cSendNs           // time inside Mesh.Send, inline socket write included
	cHandlers         // shard.Handler calls returned
	cHandlerNs        // time inside them
	numCounters
)

type counts [numCounters]int64

func (a counts) sub(b counts) counts {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

// span is one traced interval. Times are nanoseconds since the stack's
// base instant; Parent is 0 for a root. Op is the written value for spans
// that belong to one write — the only identity that crosses the client
// socket — and a client-side label on client read spans.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Node   int    `json:"node"` // member index, -1 for the client side
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Op     string `json:"op,omitempty"`
}

// syncSample is one timed Sync, kept so the window's mean and p99 can be
// taken afterwards.
type syncSample struct{ at, dur int64 }

// nodeTrace is one member's counters plus the state its event loop keeps
// to itself: the step in progress (the parent of sync and send spans) and
// the sync samples, both read by others only after the node has stopped.
type nodeTrace struct {
	c       [numCounters]atomic.Int64
	curStep int64
	syncs   []syncSample
}

type tracer struct {
	base  time.Time
	nodes []*nodeTrace

	// Spans whose start falls in [sliceFrom, sliceTo) are kept.
	sliceFrom, sliceTo atomic.Int64
	nextID             atomic.Int64

	mu    sync.Mutex
	spans []span
}

// traceSlice is how much of the measured window keeps its spans.
const traceSlice = 200 * time.Millisecond

func newTracer(base time.Time, n int) *tracer {
	t := &tracer{base: base, nodes: make([]*nodeTrace, n)}
	for i := range t.nodes {
		t.nodes[i] = &nodeTrace{}
	}
	t.sliceFrom.Store(math.MaxInt64)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// openSlice starts keeping spans, from `from` for traceSlice.
func (t *tracer) openSlice(from int64) {
	t.sliceTo.Store(from + int64(traceSlice))
	t.sliceFrom.Store(from)
}

// begin returns a span id if a span starting at `at` is to be kept, else 0.
func (t *tracer) begin(at int64) int64 {
	if at < t.sliceFrom.Load() || at >= t.sliceTo.Load() {
		return 0
	}
	return t.nextID.Add(1)
}

func (t *tracer) finish(s span) {
	if s.ID == 0 {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot sums the members' counters.
func (t *tracer) snapshot() counts {
	var out counts
	for _, nt := range t.nodes {
		for i := range out {
			out[i] += nt.c[i].Load()
		}
	}
	return out
}

// stampedMsg carries a peer message's mailbox-enqueue time from the mesh's
// deliver closure to the process wrapper that dequeues it, so mailbox wait
// is matched per message. KeyedNode treats messages as opaque.
type stampedMsg struct {
	proto.Message
	at int64
}

func (t *tracer) wrapDeliver(deliver func(from int, msg proto.Message)) func(int, proto.Message) {
	return func(from int, msg proto.Message) {
		deliver(from, stampedMsg{Message: msg, at: t.now()})
	}
}

func (t *tracer) wrapSend(node int, send func(to int, msg proto.Message)) func(int, proto.Message) {
	nt := t.nodes[node]
	return func(to int, msg proto.Message) {
		t0 := t.now()
		id := t.begin(t0)
		send(to, msg)
		t1 := t.now()
		nt.c[cSends].Add(1)
		nt.c[cSendNs].Add(t1 - t0)
		t.finish(span{ID: id, Parent: nt.curStep, Name: "transport.send", Node: node, Start: t0, End: t1})
	}
}

func (t *tracer) wrapHandler(node int, h shard.Handler) shard.Handler {
	nt := t.nodes[node]
	return func(op wire.ClientOp, key string, val []byte) ([]byte, error) {
		t0 := t.now()
		id := t.begin(t0)
		out, err := h(op, key, val)
		t1 := t.now()
		nt.c[cHandlers].Add(1)
		nt.c[cHandlerNs].Add(t1 - t0)
		if id != 0 {
			t.finish(span{ID: id, Name: "shard.handler", Node: node, Start: t0, End: t1, Op: string(val)})
		}
		return out, err
	}
}

// tracedProc times every call KeyedNode makes into the keyed state
// machine. It embeds *regmap.Node so the optional interfaces KeyedNode
// probes for — IsWriter (the writer-set boundary), PendingFlush/Flush (the
// coalescer's flush tick), storage.Recoverable — still resolve.
type tracedProc struct {
	*regmap.Node
	t    *tracer
	nt   *nodeTrace
	node int
}

func (t *tracer) wrapProcess(node int, nd *regmap.Node) cluster.KeyedProcess {
	return &tracedProc{Node: nd, t: t, nt: t.nodes[node], node: node}
}

func (p *tracedProc) stepBegin() (t0, id int64) {
	t0 = p.t.now()
	id = p.t.begin(t0)
	p.nt.curStep = id
	return t0, id
}

func (p *tracedProc) stepEnd(name string, t0, id int64, op proto.Value) {
	t1 := p.t.now()
	p.nt.c[cSteps].Add(1)
	p.nt.c[cStepNs].Add(t1 - t0)
	if id != 0 {
		p.t.finish(span{ID: id, Name: name, Node: p.node, Start: t0, End: t1, Op: string(op)})
	}
}

func (p *tracedProc) Start(key string, op proto.OpID, kind proto.OpKind, val proto.Value) proto.Effects {
	t0, id := p.stepBegin()
	eff := p.Node.Start(key, op, kind, val)
	p.nt.c[cEvents].Add(1)
	p.stepEnd("regmap.start", t0, id, val)
	return eff
}

func (p *tracedProc) Deliver(from int, msg proto.Message) proto.Effects {
	t0, id := p.stepBegin()
	if sm, ok := msg.(stampedMsg); ok {
		p.nt.c[cMsgs].Add(1)
		p.nt.c[cMailboxNs].Add(t0 - sm.at)
		msg = sm.Message
	}
	eff := p.Node.Deliver(from, msg)
	p.nt.c[cEvents].Add(1)
	p.stepEnd("regmap.deliver", t0, id, nil)
	return eff
}

func (p *tracedProc) Flush() proto.Effects {
	t0, id := p.stepBegin()
	eff := p.Node.Flush()
	p.nt.c[cFlushes].Add(1)
	p.stepEnd("regmap.flush", t0, id, nil)
	return eff
}

// tracedStore counts appends and times the syncs that have something to
// write (a Sync with nothing buffered is a no-op in every implementation).
// Sync runs inside a state-machine step, on the member's event loop.
type tracedStore struct {
	storage.StableStorage
	t     *tracer
	nt    *nodeTrace
	node  int
	dirty bool
}

func (t *tracer) wrapStore(node int, s storage.StableStorage) storage.StableStorage {
	return &tracedStore{StableStorage: s, t: t, nt: t.nodes[node], node: node}
}

func (s *tracedStore) Append(r storage.Record) {
	s.nt.c[cAppends].Add(1)
	s.dirty = true
	s.StableStorage.Append(r)
}

func (s *tracedStore) Sync() error {
	if !s.dirty {
		return s.StableStorage.Sync()
	}
	s.dirty = false
	t0 := s.t.now()
	id := s.t.begin(t0)
	err := s.StableStorage.Sync()
	t1 := s.t.now()
	s.nt.c[cSyncs].Add(1)
	s.nt.c[cSyncNs].Add(t1 - t0)
	s.nt.syncs = append(s.nt.syncs, syncSample{at: t0, dur: t1 - t0})
	s.t.finish(span{ID: id, Parent: s.nt.curStep, Name: "storage.sync", Node: s.node, Start: t0, End: t1})
	return err
}

// traceFile is the on-disk shape of one traced repetition's span slice.
type traceFile struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	SliceFrom int64  `json:"slice_from_ns"`
	SliceTo   int64  `json:"slice_to_ns"`
	Spans     []span `json:"spans"`
}

// writeSpans links the spans that share a write's identity (client op ->
// handler -> start step) and writes the slice out. clientOps are the
// client-side spans, built from the recorded history.
func (t *tracer) writeSpans(path, workload string, seed int64, clientOps []span) error {
	spans := append(clientOps, t.spans...)
	client := make(map[string]int64)
	handler := make(map[string]int64)
	for _, s := range spans {
		if s.Op == "" {
			continue
		}
		switch s.Name {
		case "regclient.op":
			client[s.Op] = s.ID
		case "shard.handler":
			handler[s.Op] = s.ID
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Op == "" {
			continue
		}
		switch s.Name {
		case "shard.handler":
			s.Parent = client[s.Op]
		case "regmap.start":
			s.Parent = handler[s.Op]
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(traceFile{
		Workload: workload, Seed: seed,
		SliceFrom: t.sliceFrom.Load(), SliceTo: t.sliceTo.Load(), Spans: spans,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
