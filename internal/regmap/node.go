package regmap

import (
	"fmt"
	"sort"

	"twobitreg/internal/core"
	"twobitreg/internal/proto"
	"twobitreg/internal/storage"
)

// Node is the keyed store's state machine at one process: a map from key to
// register instance on the lane engine, plus the cross-key frame coalescer.
// Like the core protocol types it is single-threaded — the runtime
// (cluster.KeyedNode) serializes calls through its event loop, and the
// deterministic harnesses (simulator, explorer) call it directly.
type Node struct {
	id   int
	sh   *shared
	regs map[string]*reg

	// hold buffers outgoing keyed frames per destination while coalescing;
	// held counts them across destinations.
	hold [][]KeyedMsg
	held int

	// sends is the Effects.Sends scratch reused across steps (see the
	// proto.Effects contract: callers consume Sends before re-entering).
	sends []proto.Send

	// store, when attached, is the node's stable storage: every hosted
	// register logs through a key-stamping view of it (see durable.go).
	// dirty: records appended since the last sync. doneHeld: completions a
	// coalescing node holds until Flush has synced them.
	store    storage.StableStorage
	dirty    bool
	doneHeld []proto.Completion

	// reset[j]: the link to p_j was reset in this incarnation
	// (PeerRestarted). A register created afterwards inherits the reset: the
	// restart is the node's, whichever keys it hosted at the time.
	reset []bool

	// dropped counts peer frames refused at Deliver.
	dropped int
}

// reg is one key's register instance plus the per-key client queue
// (register processes are sequential; operations on one key through one
// process serialize, different keys proceed independently).
type reg struct {
	mw      *core.MWProc
	busy    bool
	pending []pendingOp
}

type pendingOp struct {
	op   proto.OpID
	kind proto.OpKind
	val  proto.Value
}

// NewNode returns the keyed state machine for process id under cfg. Every
// node of one store must be built from the same Config.
func NewNode(id int, cfg Config) (*Node, error) {
	sh, err := newShared(cfg)
	if err != nil {
		return nil, err
	}
	return newNode(id, sh), nil
}

func newNode(id int, sh *shared) *Node {
	if id < 0 || id >= sh.n {
		panic(fmt.Sprintf("regmap: node id %d out of range [0,%d)", id, sh.n))
	}
	nd := &Node{id: id, sh: sh, regs: make(map[string]*reg)}
	if sh.coalesce {
		nd.hold = make([][]KeyedMsg, sh.n)
	}
	return nd
}

// ID returns the node's process index.
func (nd *Node) ID() int { return nd.id }

// N returns the number of processes.
func (nd *Node) N() int { return nd.sh.n }

// WritersFor returns key's writer set, sorted ascending.
func (nd *Node) WritersFor(key string) []int {
	return append([]int(nil), nd.sh.writersFor(key)...)
}

// IsWriter reports whether pid may write key.
func (nd *Node) IsWriter(key string, pid int) bool {
	for _, w := range nd.sh.writersFor(key) {
		if w == pid {
			return true
		}
	}
	return false
}

// reg returns (creating if needed) the register instance for key: the
// multi-writer register with one lane per (key, process). The key's writer
// set is admission only (Start); the register is the same for every key.
func (nd *Node) reg(key string) *reg {
	r, ok := nd.regs[key]
	if !ok {
		r = &reg{mw: core.NewMWMR(nd.id, nd.sh.n)}
		if nd.store != nil {
			r.mw.AttachStorage(keyStore{key: key, nd: nd})
		}
		for peer, was := range nd.reset {
			if was {
				r.mw.PeerRestarted(peer) // nothing to re-ship yet: only marks the link
			}
		}
		nd.regs[key] = r
	}
	return r
}

// Start begins a client operation on key. Writes must come through a member
// of the key's writer set — harnesses reject foreign writes first
// (ErrNotWriter); reaching the protocol with one is a harness bug and
// panics. Completions surface in this or a later Effects.Done.
func (nd *Node) Start(key string, op proto.OpID, kind proto.OpKind, val proto.Value) proto.Effects {
	if kind == proto.OpWrite && !nd.IsWriter(key, nd.id) {
		panic(fmt.Sprintf("regmap: process %d invoked write on key %q outside its writer set %v (harnesses must reject such writes first)",
			nd.id, key, nd.sh.writersFor(key)))
	}
	out := proto.Effects{Sends: nd.sends[:0]}
	defer func() { nd.sends = out.Sends }()
	r := nd.reg(key)
	r.pending = append(r.pending, pendingOp{op: op, kind: kind, val: val})
	nd.pump(key, r, proto.Effects{}, &out)
	nd.endStep(&out)
	return out
}

// Deliver hands the node a message from peer `from`: a KeyedMsg routes to
// its key's register, a MultiMsg unpacks subframe by subframe (in order —
// coalescing preserves per-link frame order). A frame the register cannot
// take — unkeyed, an inner type it does not speak, or a lane address
// outside 0..n-1 — is a peer's bad input, not a harness bug: it is dropped
// and counted (Dropped) instead of reaching the register's panics.
func (nd *Node) Deliver(from int, msg proto.Message) proto.Effects {
	out := proto.Effects{Sends: nd.sends[:0]}
	defer func() { nd.sends = out.Sends }()
	switch m := msg.(type) {
	case KeyedMsg:
		nd.deliverKeyed(from, m, &out)
	case MultiMsg:
		frames := m.Frames
		if nd.sh.fault == FaultDropMultiTail && len(frames) > 0 {
			frames = frames[:len(frames)-1] // mutant: lose the last subframe
		}
		for _, f := range frames {
			nd.deliverKeyed(from, f, &out)
		}
	default:
		nd.dropped++
	}
	nd.endStep(&out)
	return out
}

func (nd *Node) deliverKeyed(from int, m KeyedMsg, out *proto.Effects) {
	if !nd.takes(m.Inner) {
		nd.dropped++
		return
	}
	r := nd.reg(m.Key)
	nd.pump(m.Key, r, r.mw.Deliver(from, m.Inner), out)
}

// takes reports whether a key's register takes inner from a peer: one of
// the messages it speaks, with a lane address in 0..n-1.
func (nd *Node) takes(inner proto.Message) bool {
	w := 0
	switch m := inner.(type) {
	case core.ReadMsg, core.ProceedMsg:
	case core.LaneMsg:
		w = m.Writer
	case core.LaneBatchMsg:
		w = m.Writer
	case core.LaneCompactMsg:
		w = m.Writer
	default:
		return false
	}
	return w >= 0 && w < nd.sh.n
}

// Dropped counts the peer frames Deliver refused (see Deliver).
func (nd *Node) Dropped() int { return nd.dropped }

// pump absorbs one register's effects — wrapping sends with the key,
// surfacing completions — and starts queued client operations freed by
// those completions, to a fixpoint.
func (nd *Node) pump(key string, r *reg, eff proto.Effects, out *proto.Effects) {
	for {
		for _, s := range eff.Sends {
			nd.emit(out, s.To, KeyedMsg{Key: key, Inner: s.Msg})
		}
		if len(eff.Done) > 0 {
			out.Done = append(out.Done, eff.Done...)
			r.busy = false
		}
		if r.busy || len(r.pending) == 0 {
			return
		}
		po := r.pending[0]
		r.pending = r.pending[1:]
		r.busy = true
		if po.kind == proto.OpWrite {
			eff = r.mw.StartWrite(po.op, po.val)
		} else {
			eff = r.mw.StartRead(po.op)
		}
	}
}

// emit sends one keyed frame, or buffers it for the cross-key coalescer.
func (nd *Node) emit(out *proto.Effects, to int, f KeyedMsg) {
	if nd.hold == nil {
		out.AddSend(to, f)
		return
	}
	nd.hold[to] = append(nd.hold[to], f)
	nd.held++
}

// PendingFlush implements proto.Flusher: buffered coalescer frames — and,
// with storage attached, unsynced records and held completions — await a tick.
func (nd *Node) PendingFlush() bool { return nd.held > 0 || nd.dirty || len(nd.doneHeld) > 0 }

// Flush implements proto.Flusher, and is a durable coalescing node's commit
// point: sync once if dirty, then release the held completions and frames.
func (nd *Node) Flush() proto.Effects {
	out := proto.Effects{Sends: nd.sends[:0]}
	if !nd.PendingFlush() {
		return out
	}
	defer func() { nd.sends = out.Sends }()
	nd.commit()
	out.Done, nd.doneHeld = nd.doneHeld, nil
	nd.releaseFrames(&out)
	return out
}

// releaseFrames ships the held frames: per destination (ascending, so the
// order is deterministic), in emission order, as MultiMsgs of whole
// subframes. A multi-frame ends where the next subframe — its key, the five
// bytes that frame it, and its payload — would push it past
// core.MaxBatchDataBytes, the budget lane frames are cut to as well; a lone
// subframe ships bare.
func (nd *Node) releaseFrames(out *proto.Effects) {
	for to, frames := range nd.hold {
		for off := 0; off < len(frames); {
			end, size := off, 0
			for end < len(frames) {
				size += 5 + len(frames[end].Key) + frames[end].DataBytes()
				if end > off && size > core.MaxBatchDataBytes {
					break
				}
				end++
			}
			if end-off == 1 && nd.sh.fault != FaultLoneMulti {
				out.AddSend(to, frames[off])
			} else {
				chunk := make([]KeyedMsg, end-off)
				copy(chunk, frames[off:end])
				out.AddSend(to, MultiMsg{Frames: chunk})
			}
			off = end
		}
		// Every frame left by value (a MultiMsg chunk is its own copy), so
		// the backing array is kept for the next burst.
		clear(frames)
		nd.hold[to] = frames[:0]
	}
	nd.held = 0
}

// LocalMemoryBits sums the hosted registers' Table 1 row 4 probes.
func (nd *Node) LocalMemoryBits() int {
	bits := 0
	for _, r := range nd.regs {
		bits += r.mw.LocalMemoryBits()
	}
	return bits
}

// Keys returns the keys this node currently hosts, sorted.
func (nd *Node) Keys() []string {
	out := make([]string, 0, len(nd.regs))
	for k := range nd.regs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// MW returns the register instance hosted for key, or nil if this node
// has not seen key yet. Introspection for invariant checkers and tests.
func (nd *Node) MW(key string) *core.MWProc {
	if r, ok := nd.regs[key]; ok {
		return r.mw
	}
	return nil
}

// Owed sums, over every key and lane this node hosts, the
// indices it holds that peer neither was sent nor has shown to hold
// (core.MWProc.LaneOwed) — on a link where nobody waits, the runs the next
// READ, restart or full frame will carry. Introspection for tests.
func (nd *Node) Owed(peer int) int {
	owed := 0
	for _, r := range nd.regs {
		for w := 0; w < nd.sh.n; w++ {
			owed += r.mw.LaneOwed(w, peer)
		}
	}
	return owed
}

// Idle reports whether no client operation is in flight or queued on any
// key at this node.
func (nd *Node) Idle() bool {
	for _, r := range nd.regs {
		if r.busy || len(r.pending) > 0 {
			return false
		}
	}
	return true
}

var _ proto.Flusher = (*Node)(nil)
