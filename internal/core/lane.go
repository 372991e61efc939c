package core

import (
	"fmt"

	"twobitreg/internal/proto"
)

// Lane is the reusable pairwise alternating-bit sequencing engine at one
// process, extracted from the SWMR Proc so the same discipline can carry any
// number of independent value streams (one per writer in the multi-writer
// register, one per key in sharded stores).
//
// A Lane owns, for ONE value stream (one writer's history) at one process:
//
//   - the local prefix of that stream's value sequence (history);
//   - wSync[j], this process's knowledge of how much of the stream each peer
//     holds (wSync[self] is its own most recent index);
//   - the per-peer reorder buffers behind the line-11 parity guard;
//   - the sender-side rules: line-2/15 forwards to peers believed exactly one
//     value behind, and the Rule-R2 catch-up for lagging senders.
//
// Sequence numbers never travel: the receiver reconstructs them from the
// alternating bit, exactly as in Figure 1 of the paper. A Lane emits WRITE
// messages through the emit callback its owner passes in, so the owner
// decides how they appear on the wire (bare WriteMsg for the SWMR register,
// wrapped with a writer id for the multi-writer one) and keeps its own
// message accounting.
//
// Line references in comments are to Figure 1 of the paper.
type Lane struct {
	self, n  int
	explicit bool // explicit-seqnum ablation (WithExplicitSeqnums)

	// history is the local prefix of the stream's value sequence; logically
	// history[0] = v0. After Compact, entries below histBase have been
	// discarded and history[x] is stored at history[x-histBase].
	history  []proto.Value
	histBase int
	// wSync[j] = α: to this process's knowledge, p_j holds the stream's
	// prefix up to index α.
	wSync []int
	// pending buffers, per peer, WRITE messages parked on the line-11 parity
	// guard, oldest first from head[j]. Property P1 bounds its quiescent
	// depth at 1 per peer; maxPending records the observed maximum so tests
	// can verify the bound.
	pending    [][]WriteMsg
	head       []int
	maxPending int
	// parked counts the WRITEs held in pending across all peers, so an owner
	// hosting many lanes skips the ones with nothing to drain (Parked).
	parked int

	// Pipelined mode (EnablePipelining — the batched multi-writer register).
	// sent[j] is the highest stream index shipped on the link to p_j. The
	// strict protocol sends each index on each link exactly once, paced one
	// round trip apart (Forward waits for the peer's echo, Rule R2 advances
	// one value per received message); that pacing is what makes receiver-
	// side parity counting sound, and it is also what makes lane padding
	// cost one flood round per index. Pipelined mode keeps the per-link
	// exactly-once contract explicit in sent and uses it to ship whole
	// backlogs eagerly (ShipBacklog, bulk R2): per-link indices remain
	// strictly consecutive, so the receiver's reconstruction is unchanged,
	// but a gap of any size crosses a link in one frame.
	pipelined bool
	sent      []int
	// runFwd[j] is the highest index forwarded to p_j by an adoption in the
	// current Drain (0: none — index 0 is v0, never forwarded, and whoever
	// adopts index 1 still has every wSync[j] at 0). A relay adopting
	// consecutive indices in one Drain — a padded run that arrived as one
	// frame — extends the forward to the peers that received the run's
	// previous index, so the run leaves on each link as the one frame it
	// arrived as (forwardRun).
	runFwd []int
	// resendRuns is the mut-lane-resend bug: a run's second index is
	// forwarded without advancing sent (see MWFaultRunResend).
	resendRuns bool

	// owner is the stream's writer and serving the host's view of who has an
	// operation of its own on this register (ForwardWhereServed): serving[j]
	// — p_j has sent this process a READ; serving[self] — this process has
	// started one. Every wait in Figure 1 belongs to such a process, so a
	// relay forwards an adopted index only on links where someone waits for
	// it and owes it on the rest (lazy, forwardRun). The slice is the
	// host's, shared by all its lanes; nil means the host tracks nobody and
	// every link is forwarded on (the SWMR Proc).
	owner   int
	serving []bool

	// onAppend, when set, observes every history append (index, value) —
	// the durability hook: a durable owner logs each append to stable
	// storage through it. Recovery replays install it only after the
	// replayed entries are in place, so replay itself is never re-logged.
	onAppend func(index int, v proto.Value)
}

// emitFn transmits the lane WRITE for stream index wsn to peer `to`. Owners
// wrap it into their transport frame (bare WriteMsg for the SWMR register,
// writer-tagged and possibly batched for the multi-writer one) and count it;
// wsn lets batching owners coalesce consecutive-index runs per link.
type emitFn func(to, wsn int, m WriteMsg)

// NewLane returns the engine for one value stream at process self of n.
// initial is v0, the stream's value before any append.
func NewLane(self, n int, initial proto.Value, explicitSeqnums bool) *Lane {
	return &Lane{
		self:     self,
		n:        n,
		explicit: explicitSeqnums,
		history:  []proto.Value{initial.Clone()},
		wSync:    make([]int, n),
		pending:  make([][]WriteMsg, n),
		head:     make([]int, n),
	}
}

// EnablePipelining switches the lane to pipelined sending (see the sent
// field): per-link send dedup plus eager whole-backlog shipping. A lane's
// mode is its owner's choice, made once at construction — the multi-writer
// register pipelines every lane, the SWMR Proc none — and never switched
// while messages flow. Incompatible with the explicit-seqnum ablation.
func (l *Lane) EnablePipelining() {
	if l.explicit {
		panic("core: pipelined lanes are incompatible with the explicit-seqnum ablation")
	}
	l.pipelined = true
	cursors := make([]int, 2*l.n) // one allocation: a keyed store hosts a lane per (key, writer)
	l.sent, l.runFwd = cursors[:l.n:l.n], cursors[l.n:]
}

// ForwardWhereServed hands a pipelined lane its host's view of who waits on
// this stream's echoes: owner is the stream's writer (its line-3 wait), and
// serving — owned and updated by the host, see the field — marks the
// processes with an operation of their own. Links to everyone else are
// lazy from then on.
func (l *Lane) ForwardWhereServed(owner int, serving []bool) {
	if !l.pipelined {
		panic("core: ForwardWhereServed on a non-pipelined lane")
	}
	l.owner, l.serving = owner, serving
}

// lazy reports whether nobody can be waiting on this lane's echoes over the
// link to p_j: p_j is not the stream's writer (line 3 counts echoes to the
// writer), has sent this process no READ (line 9 counts echoes to a
// reader), and this process has no operation of its own (the line-20 guard
// counts echoes from the requester). An index adopted meanwhile is owed to
// p_j, not sent: sent[j] stays behind and the link's next ShipBacklog
// carries the whole run as one frame. In an asynchronous system that is a
// message delayed in the channel until the first of those three turns true
// — and the host ships what is owed in the very step that turns it.
func (l *Lane) lazy(j int) bool {
	return l.serving != nil && j != l.self && j != l.owner && !l.serving[j] && !l.serving[l.self]
}

// Owed returns how many indices this process holds that p_j neither was
// sent nor has shown to hold: Top - max(sent[j], wSync[j]), pipelined lanes
// only. On a lazy link that is the run waiting for the next ShipBacklog,
// however long; on the others it is what pacing withholds until p_j's next
// echo.
func (l *Lane) Owed(j int) int {
	if !l.pipelined || j == l.self {
		return 0
	}
	return max(0, l.Top()-max(l.sent[j], l.wSync[j]))
}

// Top returns this process's own most recent stream index (wSync[self]).
func (l *Lane) Top() int { return l.wSync[l.self] }

// WSync returns wSync[j].
func (l *Lane) WSync(j int) int { return l.wSync[j] }

// Append performs the local bookkeeping of a new write by this process
// (Figure 1 line 1): wsn <- wSync[self]+1; wSync[self] <- wsn;
// history[wsn] <- v. It returns wsn; the caller follows up with Forward.
// Only the stream's writer may Append.
func (l *Lane) Append(v proto.Value) int {
	wsn := l.wSync[l.self] + 1
	l.wSync[l.self] = wsn
	l.appendHistory(wsn, v.Clone())
	return wsn
}

// AppendRef is Append without the defensive clone: the caller hands over a
// value it will never mutate. Padding runs use it to share one clone across
// every padded index instead of cloning per entry — values are immutable
// once inside a history, so aliasing them is safe.
func (l *Lane) AppendRef(v proto.Value) int {
	wsn := l.wSync[l.self] + 1
	l.wSync[l.self] = wsn
	l.appendHistory(wsn, v)
	return wsn
}

// Forward sends WRITE(wsn mod 2, history[wsn]) to every peer believed to know
// exactly wsn-1 values (Figure 1 lines 2 and 15).
func (l *Lane) Forward(wsn int, emit emitFn) {
	for j := 0; j < l.n; j++ {
		if j != l.self && l.wSync[j] == wsn-1 {
			l.send(j, wsn, emit)
		}
	}
}

// send transmits stream index wsn on the link to peer `to`. The receiver
// reconstructs indices by counting the link's messages, so the link must
// carry strictly consecutive indices. The strict protocol guarantees that
// by pacing (one new index per alternating-bit round trip per link); a
// pipelined lane enforces it explicitly with sent[to]: indices the link
// already carried are skipped, and a target ahead of the link's position is
// reached by shipping the intermediate indices too — each index crosses
// each link at most once, in order, exactly as in the strict protocol, just
// without the round trips in between.
func (l *Lane) send(to, wsn int, emit emitFn) {
	if l.pipelined {
		for k := l.sent[to] + 1; k <= wsn; k++ {
			l.sent[to] = k
			l.emitOne(to, k, emit)
		}
		return
	}
	l.emitOne(to, wsn, emit)
}

// emitOne builds and emits the WRITE for stream index wsn.
func (l *Lane) emitOne(to, wsn int, emit emitFn) {
	m := WriteMsg{Bit: uint8(wsn % 2), Val: l.histAt(wsn)}
	if l.explicit {
		m.Seq = wsn
	}
	emit(to, wsn, m)
}

// ShipBacklog eagerly ships every index in (sent[to], Top] on the link to
// peer `to`, in order. Pipelined mode only. The owner's emit callback sees
// one call per index with consecutive wsn, so a batching emitter coalesces
// the whole backlog into a single frame per link — this is what turns the
// O(gap) flood rounds of lane padding into one round.
//
// When the backlog is a dominated prefix of a quorum-stable top — this
// process knows n-t processes already hold Top, so every read starting
// after this frame ships will pin at or above it — the real mixed-value
// history is not replayed. Instead every gap index carries history[Top],
// which the batching emitter renders as ONE LaneCompactMsg: a crash-frozen
// rejoiner catches up in O(1) shipped values instead of O(gap). This
// re-anchor is safe for atomicity because any read still pinned at an
// intermediate index started before Top reached its quorum (quorum
// intersection), hence overlaps the rejoiner's catch-up read — returning
// the newer stable value to concurrent reads is allowed. Lemma 4 weakens
// accordingly on pipelined lanes: a history entry may be a copy of a later
// owner entry (see laneInvariants). The re-anchor applies when the gap fits
// one compact frame (MaxFrameEntries), so no partially-anchored frame
// boundary is ever exposed; larger backlogs fall back to the honest replay.
func (l *Lane) ShipBacklog(to int, emit emitFn) {
	if !l.pipelined {
		panic("core: ShipBacklog on a non-pipelined lane")
	}
	top := l.Top()
	if gap := top - l.sent[to]; gap >= 2 && gap <= MaxFrameEntries &&
		l.CountGE(top) >= proto.QuorumSize(l.n) {
		v := l.histAt(top)
		for k := l.sent[to] + 1; k <= top; k++ {
			l.sent[to] = k
			m := WriteMsg{Bit: uint8(k % 2), Val: v}
			if l.explicit {
				m.Seq = k
			}
			emit(to, k, m)
		}
		return
	}
	l.send(to, top, emit)
}

// Enqueue parks a received WRITE behind the line-11 parity guard; Drain
// processes whatever has become processable. Values are adopted by
// reference, as padding is at the writer (AppendRef): nobody mutates a
// delivered value, so a compact run's entries share one.
func (l *Lane) Enqueue(from int, m WriteMsg) {
	l.pending[from] = append(l.pending[from], m)
	l.parked++
}

// Parked returns the number of WRITEs currently parked behind the line-11
// guard, over all peers. Drain on a lane with none is a no-op.
func (l *Lane) Parked() int { return l.parked }

// Drain runs one full pass over the per-peer reorder buffers, processing
// every parked WRITE whose line-11 guard has become true (lines 12-18). It
// returns whether any message was processed; callers loop it to a fixpoint
// together with their own guards.
func (l *Lane) Drain(emit emitFn) bool {
	clear(l.runFwd) // runs are scoped to one Drain
	progress := false
	for j := 0; j < l.n; j++ {
		for {
			m, ok := l.nextFromPending(j)
			if !ok {
				break
			}
			l.processWrite(j, m, emit)
			progress = true
		}
	}
	return progress
}

// nextFromPending pops a buffered WRITE from peer j if it passes the line-11
// guard: its parity must equal (wSync[j]+1) mod 2 — or, in the ablation
// mode, its explicit sequence number must be exactly wSync[j]+1.
// Over a FIFO link the oldest one passes, and popping it advances head[j],
// so a frame of C entries drains in O(C); only a reordered strict lane (P1:
// one entry per peer) shifts what it skipped. An emptied queue reuses its
// backing array, keeping the pop allocation-free; vacated slots are cleared.
func (l *Lane) nextFromPending(j int) (WriteMsg, bool) {
	queue, h := l.pending[j], l.head[j]
	for k := h; k < len(queue); k++ {
		m := queue[k]
		if !l.guardLine11(j, m) {
			continue
		}
		copy(queue[h+1:k+1], queue[h:k]) // keep the skipped ones, in order
		queue[h] = WriteMsg{}
		if l.head[j] = h + 1; l.head[j] == len(queue) {
			l.pending[j], l.head[j] = queue[:0], 0
		}
		l.parked--
		return m, true
	}
	return WriteMsg{}, false
}

func (l *Lane) guardLine11(j int, m WriteMsg) bool {
	if l.explicit {
		return m.Seq == l.wSync[j]+1
	}
	return int(m.Bit) == (l.wSync[j]+1)%2
}

// processWrite is Figure 1 lines 12-18, run once the line-11 guard passed.
func (l *Lane) processWrite(from int, m WriteMsg, emit emitFn) {
	// Line 12: reconstruct the sequence number locally.
	wsn := l.wSync[from] + 1
	switch {
	case wsn == l.wSync[l.self]+1:
		// Lines 13-15: this is our next value; adopt and forward
		// (Rule R1). Note the forward loop runs BEFORE wSync[from] is
		// updated at line 18, so `from` itself still satisfies
		// wSync[from] == wsn-1 and receives the forward — that echo is
		// the alternating-bit acknowledgement.
		l.wSync[l.self] = wsn
		l.appendHistory(wsn, m.Val)
		if l.pipelined {
			l.forwardRun(wsn, emit)
		} else {
			l.Forward(wsn, emit)
		}
	case wsn < l.wSync[l.self]:
		// Line 16 (Rule R2): the sender lags by at least two values. The
		// strict protocol sends the single next value it is missing (one
		// catch-up round trip per value); a pipelined lane ships the whole
		// remaining backlog at once, which the owner's batching emitter
		// coalesces into one frame.
		if l.pipelined {
			l.ShipBacklog(from, emit)
		} else {
			l.send(from, wsn+1, emit)
		}
	default:
		// wsn == wSync[self]: the sender caught up to us; only the
		// line-18 bookkeeping applies.
	}
	// Line 18.
	l.wSync[from] = wsn
}

// forwardRun is the line-15 forward of a pipelined lane. Figure 1 tests
// wSync[j] == wsn-1 per index, which a relay adopting a whole run in one
// Drain satisfies only for the run's first index (and for the sender, whose
// column advances entry by entry): every other peer would get the head now
// and the tail one echo later, through Rule R2 — two frames on a link where
// the run arrived as one. So the test is run-scoped: a peer forwarded wsn-1
// by this same Drain gets wsn too (send ships from sent[j], which that
// forward left at wsn-1), and the batching emitter renders the run as one
// frame per link. Pacing between Drains is unchanged — a run's first index
// still waits for the peer's acknowledgement of everything before it, so a
// frozen peer is owed at most one unacknowledged frame per lane — and so is
// the exactly-once contract, which send keeps in sent[].
//
// All of that is for links where someone waits on the echo. On a lazy link
// (see lazy) the index is owed instead: nothing leaves, sent[j] stays where
// it was, and the run ships whole with the link's next ShipBacklog.
func (l *Lane) forwardRun(wsn int, emit emitFn) {
	for j := 0; j < l.n; j++ {
		if j == l.self || (l.wSync[j] != wsn-1 && l.runFwd[j] != wsn-1) || l.lazy(j) {
			continue
		}
		if l.resendRuns && l.wSync[j] == wsn-2 {
			l.emitOne(j, wsn, emit) // the mutant: sent[j] stays at the run's head
		} else {
			l.send(j, wsn, emit)
		}
		l.runFwd[j] = wsn
	}
}

// CountEq returns the number of processes j with wSync[j] == x (the line-3
// wait predicate).
func (l *Lane) CountEq(x int) int {
	z := 0
	for _, v := range l.wSync {
		if v == x {
			z++
		}
	}
	return z
}

// CountGE returns the number of processes j with wSync[j] >= x (the line-9
// wait predicate).
func (l *Lane) CountGE(x int) int {
	z := 0
	for _, v := range l.wSync {
		if v >= x {
			z++
		}
	}
	return z
}

// MinWSync returns min_j wSync[j], the GC floor candidate.
func (l *Lane) MinWSync() int {
	floor := l.wSync[0]
	for _, v := range l.wSync[1:] {
		if v < floor {
			floor = v
		}
	}
	return floor
}

// appendHistory stores history[wsn] = v, asserting the prefix discipline
// (values are adopted strictly in order — Lemma 4's mechanism).
func (l *Lane) appendHistory(wsn int, v proto.Value) {
	if wsn != l.histBase+len(l.history) {
		panic(fmt.Sprintf("core: process %d history gap: appending %d with %d entries above base %d",
			l.self, wsn, len(l.history), l.histBase))
	}
	l.history = append(l.history, v)
	if l.onAppend != nil {
		l.onAppend(wsn, v)
	}
}

// OnAppend installs the durability hook: fn observes every subsequent
// history append. See the onAppend field.
func (l *Lane) OnAppend(fn func(index int, v proto.Value)) { l.onAppend = fn }

// RecoverAppend installs a replayed history entry during crash-restart
// recovery: the next consecutive index, adopted as this process's own
// position without emitting anything and without re-logging (the entry
// came FROM the log). Only valid before any message flows.
func (l *Lane) RecoverAppend(index int, v proto.Value) error {
	if index != l.HistoryLen() {
		return fmt.Errorf("core: process %d replaying index %d onto %d entries (log gap)",
			l.self, index, l.HistoryLen())
	}
	if l.onAppend != nil {
		return fmt.Errorf("core: process %d RecoverAppend after storage attach", l.self)
	}
	l.wSync[l.self] = index
	l.appendHistory(index, v.Clone())
	return nil
}

// ResetLink zeroes this lane's view of the link to peer j after one end
// of it restarted: knowledge of j's position, the link's send cursor, and
// the parked reorder buffer all reset, because the counting discipline
// that made them meaningful died with the old connection (frames in
// flight at the crash are gone, so every surviving count would undercount
// forever — and a permanently undercounted column deadlocks the line-3
// exact-count wait). Understating knowledge is the safe direction: quorum
// counts re-fill as the link re-ships (ShipBacklog) from position zero.
func (l *Lane) ResetLink(j int) {
	if j == l.self {
		panic(fmt.Sprintf("core: process %d ResetLink on itself", l.self))
	}
	l.wSync[j] = 0
	if l.pipelined {
		l.sent[j] = 0
	}
	clear(l.pending[j])
	l.parked -= l.PendingDepth(j)
	l.pending[j], l.head[j] = l.pending[j][:0], 0
}

// histAt returns history[x]. Accessing a compacted index is a bug in the
// caller's floor computation and panics.
func (l *Lane) histAt(x int) proto.Value {
	if x < l.histBase || x >= l.histBase+len(l.history) {
		panic(fmt.Sprintf("core: process %d history[%d] out of retained range [%d,%d)",
			l.self, x, l.histBase, l.histBase+len(l.history)))
	}
	return l.history[x-l.histBase]
}

// HistAt returns history[x]; x must be retained (>= HistoryBase).
func (l *Lane) HistAt(x int) proto.Value { return l.histAt(x) }

// HistoryLen returns the number of known values including v0 (logical
// length: compacted entries still count).
func (l *Lane) HistoryLen() int { return l.histBase + len(l.history) }

// HistoryBase returns the lowest retained history index (0 unless Compact
// discarded a prefix).
func (l *Lane) HistoryBase() int { return l.histBase }

// Retained returns the number of history entries currently held.
func (l *Lane) Retained() int { return len(l.history) }

// Compact discards history entries strictly below floor. Callers must have
// established that no future access addresses a discarded index (see
// WithHistoryGC for the safe floor of the SWMR register).
func (l *Lane) Compact(floor int) {
	if floor <= l.histBase {
		return
	}
	drop := floor - l.histBase
	// Copy the tail so the discarded prefix becomes collectable.
	kept := make([]proto.Value, len(l.history)-drop)
	copy(kept, l.history[drop:])
	l.history = kept
	l.histBase = floor
}

// NoteQuiesced records the current reorder-buffer depths into the Property
// P1 probe. It must be called at drain fixpoints only: transient depths
// while messages are being processed do not count against the bound.
func (l *Lane) NoteQuiesced() {
	if l.parked == 0 {
		return
	}
	for j := range l.pending {
		l.maxPending = max(l.maxPending, l.PendingDepth(j))
	}
}

// MaxPendingDepth reports the deepest line-11 reorder buffer observed at a
// quiescent point; the alternating-bit discipline (Property P1) bounds it
// at 1 for strict lanes. Pipelined lanes deliberately exceed it (several
// frames may be in flight per link) and are bounded by the conservation
// invariant instead (see laneInvariants).
func (l *Lane) MaxPendingDepth() int { return l.maxPending }

// PendingDepth returns the number of WRITEs from peer j currently parked on
// the line-11 guard.
func (l *Lane) PendingDepth(j int) int { return len(l.pending[j]) - l.head[j] }

// Sent returns the highest stream index shipped to peer j (pipelined lanes
// only; 0 otherwise).
func (l *Lane) Sent(j int) int {
	if !l.pipelined {
		return 0
	}
	return l.sent[j]
}

// MemoryBits is the lane's share of the Table 1 row 4 probe: the bits held
// in retained history values plus 64 bits per history entry and per wSync
// cell.
func (l *Lane) MemoryBits() int {
	bits := 0
	for _, v := range l.history {
		bits += len(v) * 8
	}
	bits += 64 * len(l.history) // per-entry index bookkeeping
	bits += 64 * len(l.wSync)
	return bits
}
