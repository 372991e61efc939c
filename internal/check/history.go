// Package check verifies that recorded executions are atomic
// (linearizable).
//
// It provides three independent oracles behind one Checker interface
// (checker.go):
//
//   - CheckSWMR (swmr.go): the paper's own characterisation. Lemma 10 proves
//     atomicity of an SWMR register from three claims about read/write
//     real-time order; with a sequential single writer and distinct values,
//     those claims are also sufficient, giving a linear-time checker.
//   - CheckMWMR (mwmr.go): a Gibbons–Korach-style cluster serializability
//     test for multi-writer histories with distinct written values, in
//     O(n + k log k) for n operations and k written values — the default
//     judge for large multi-writer histories.
//   - CheckLinearizable (lin.go): an exhaustive Wing–Gong search over small
//     histories, free of preconditions (duplicate values, any writers). The
//     fast oracles are differentially validated against it in tests.
//
// For(h) picks the fast path matching a history's writer structure.
package check

import (
	"fmt"
	"sort"
	"sync"

	"twobitreg/internal/proto"
)

// Op is one completed or pending operation in a history. Times are opaque
// monotone numbers (virtual time under the simulator, wall-clock nanoseconds
// under the cluster runtime).
type Op struct {
	ID   proto.OpID
	Proc int
	Kind proto.OpKind
	// Value is the value written (writes) or returned (reads).
	Value proto.Value
	Inv   float64
	Res   float64
	// Completed is false for operations pending when the history was cut
	// (e.g. the invoker crashed). A pending write may or may not have
	// taken effect; a pending read constrains nothing.
	Completed bool
}

// History is a set of operations ordered by the recorder's clock.
type History struct {
	Ops []Op
	// Initial is v0, the register value before any write.
	Initial proto.Value
}

// Recorder captures a concurrent history. It is safe for concurrent use.
type Recorder struct {
	mu      sync.Mutex
	initial proto.Value
	clock   func() float64
	ops     map[proto.OpID]*Op
	order   []proto.OpID
}

// NewRecorder returns a recorder using clock for timestamps. The clock must
// be monotone non-decreasing across all callers.
func NewRecorder(initial proto.Value, clock func() float64) *Recorder {
	return &Recorder{
		initial: initial.Clone(),
		clock:   clock,
		ops:     make(map[proto.OpID]*Op),
	}
}

// Invoke records the start of an operation. For writes, value is the value
// being written; for reads it is ignored.
func (r *Recorder) Invoke(id proto.OpID, pid int, kind proto.OpKind, value proto.Value) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.ops[id]; dup {
		panic(fmt.Sprintf("check: duplicate op id %d", id))
	}
	r.ops[id] = &Op{
		ID: id, Proc: pid, Kind: kind,
		Value: value.Clone(), Inv: r.clock(),
	}
	r.order = append(r.order, id)
}

// Respond records the completion of an operation. For reads, value is the
// value returned.
func (r *Recorder) Respond(id proto.OpID, value proto.Value) {
	r.mu.Lock()
	defer r.mu.Unlock()
	op, ok := r.ops[id]
	if !ok {
		panic(fmt.Sprintf("check: response for unknown op %d", id))
	}
	if op.Completed {
		panic(fmt.Sprintf("check: duplicate response for op %d", id))
	}
	op.Completed = true
	op.Res = r.clock()
	if op.Kind == proto.OpRead {
		op.Value = value.Clone()
	}
}

// History returns a snapshot of all recorded operations, sorted by
// invocation time.
func (r *Recorder) History() History {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := History{Initial: r.initial.Clone()}
	for _, id := range r.order {
		h.Ops = append(h.Ops, *r.ops[id])
	}
	sort.SliceStable(h.Ops, func(i, j int) bool { return h.Ops[i].Inv < h.Ops[j].Inv })
	return h
}

// Completed returns only the completed operations of h, preserving order.
func (h History) Completed() []Op {
	var out []Op
	for _, op := range h.Ops {
		if op.Completed {
			out = append(out, op)
		}
	}
	return out
}

// precedes reports whether a finished strictly before b started (the
// real-time order "<_H" of the atomicity definition).
func precedes(a, b Op) bool {
	return a.Completed && a.Res < b.Inv
}

// valueKey encodes a Value as a map key with the same identity semantics as
// Value.Equal (nil equals only nil, never the empty value). Both fast
// checkers key their distinct-written-values preconditions on it.
func valueKey(v proto.Value) string {
	if v == nil {
		return "\x00nil"
	}
	return "v:" + string(v)
}
