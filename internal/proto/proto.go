// Package proto defines the contracts shared by every register protocol in
// this repository: values, messages, the single-threaded Process state
// machine, and the Effects such a machine emits.
//
// Every algorithm (the paper's two-bit register, ABD, and the bounded-cost
// comparators) is written as a pure state machine against these interfaces so
// that the discrete-event simulator, the goroutine cluster runtime, and the
// metrics layer can run them interchangeably.
package proto

import "fmt"

// Value is the data stored in a register. A nil Value is a valid register
// content (the conventional initial value v0 unless overridden).
type Value []byte

// Clone returns an independent copy of v. Protocols must clone values at
// trust boundaries so that callers cannot mutate protocol state.
func (v Value) Clone() Value {
	if v == nil {
		return nil
	}
	c := make(Value, len(v))
	copy(c, v)
	return c
}

// Equal reports whether v and w hold identical bytes (nil == empty is false:
// nil equals only nil, keeping written values distinguishable in tests).
func (v Value) Equal(w Value) bool {
	if (v == nil) != (w == nil) {
		return false
	}
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i] != w[i] {
			return false
		}
	}
	return true
}

// OpID identifies a client operation within one process. IDs need only be
// unique per process; harnesses typically use a per-process counter.
type OpID uint64

// OpKind distinguishes reads from writes in completions and histories.
type OpKind uint8

// Operation kinds.
const (
	OpRead OpKind = iota + 1
	OpWrite
)

// String returns "read" or "write".
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Message is a protocol message. Implementations are small immutable structs.
//
// ControlBits reports the number of bits of control information the message
// carries in addition to its data payload — the quantity Table 1 row 3 of the
// paper compares. For the two-bit algorithm this is exactly 2 for every
// message; for ABD it includes the sequence number width.
type Message interface {
	// TypeName returns a short stable name for the message type
	// (e.g. "WRITE0", "READ"). Used by metrics and traces.
	TypeName() string
	// ControlBits returns the control-information size in bits.
	ControlBits() int
	// DataBytes returns the size of the data payload (the written value)
	// in bytes; zero for pure control messages.
	DataBytes() int
}

// Send is an instruction to transmit msg to process To.
type Send struct {
	To  int
	Msg Message
}

// Completion reports that a client operation finished.
type Completion struct {
	Op   OpID
	Kind OpKind
	// Value is the value returned by a read; nil for writes (and for reads
	// returning the nil initial value).
	Value Value
	// Rounds counts the quorum-wait phases the operation passed through —
	// its round complexity. A phase counts whether or not it had to park
	// (it is protocol structure, not timing): the two-bit read is always 2
	// (the PROCEED round plus the line-9 confirm), ABD reads 2 (query +
	// write-back). Zero means the operation completed locally (a
	// writer-local read) or the protocol predates the metric.
	Rounds int
}

// Effects is what a Process step produces: messages to send and operations
// that completed as a consequence of the step. Both slices may be nil.
//
// Sends is valid only until the next call into the same Process: hot-path
// implementations reuse its backing array across steps, so runners must
// consume (or copy) every Send before re-entering the process. Done carries
// no such caveat — completion handlers may start new operations on the
// process while iterating it, so implementations never recycle Done buffers.
type Effects struct {
	Sends []Send
	Done  []Completion
}

// Append merges o into e.
func (e *Effects) Append(o Effects) {
	e.Sends = append(e.Sends, o.Sends...)
	e.Done = append(e.Done, o.Done...)
}

// AddSend appends a single send.
func (e *Effects) AddSend(to int, msg Message) {
	e.Sends = append(e.Sends, Send{To: to, Msg: msg})
}

// AddDone appends a single completion with no round count (local
// completions, or protocols that do not report rounds).
func (e *Effects) AddDone(op OpID, kind OpKind, v Value) {
	e.Done = append(e.Done, Completion{Op: op, Kind: kind, Value: v})
}

// AddDoneRounds appends a single completion carrying its round complexity
// (the number of quorum-wait phases the operation passed through).
func (e *Effects) AddDoneRounds(op OpID, kind OpKind, v Value, rounds int) {
	e.Done = append(e.Done, Completion{Op: op, Kind: kind, Value: v, Rounds: rounds})
}

// Process is a register protocol instance at one process, written as a
// single-threaded state machine. Runners must serialize all calls to one
// Process. Calls must never block; the paper's "wait" statements are
// implemented as internal pending queues drained by later Deliver calls.
type Process interface {
	// ID returns this process's index in [0, N).
	ID() int
	// Deliver hands the process a message from peer `from`.
	Deliver(from int, msg Message) Effects
	// StartRead begins a read operation. The result arrives in a later
	// (or the same) Effects.Done entry carrying op.
	StartRead(op OpID) Effects
	// StartWrite begins a write operation. Only the designated writer may
	// be asked to write in SWMR protocols; others must panic, as invoking
	// a write on a non-writer is a harness bug, not a runtime condition.
	StartWrite(op OpID, v Value) Effects
	// LocalMemoryBits estimates the bits of protocol state currently
	// retained by this process (Table 1 row 4).
	LocalMemoryBits() int
}

// FIFOLinks is implemented by processes whose protocol assumes FIFO
// point-to-point channels (message order preserved per ordered pair) rather
// than the paper's unordered asynchronous channels. Stream transports (TCP)
// and the in-process cluster mailboxes are FIFO by construction; the
// discrete-event simulator honors the declaration by clamping per-link
// delivery times to be monotone. The batched multi-writer register is the
// one such protocol: pipelining several lane frames per link trades the
// alternating bit's reorder tolerance (which its one-in-flight pacing paid
// for) for FIFO delivery.
type FIFOLinks interface {
	// RequiresFIFOLinks reports whether this process instance needs
	// per-link FIFO delivery for correctness.
	RequiresFIFOLinks() bool
}

// Flusher is implemented by processes that can buffer outgoing frames
// across steps for coalescing (the keyed store's cross-key frame coalescer).
// Runtimes that support it grant a flush tick some bounded time after a
// step leaves frames buffered: the simulator schedules a virtual-time flush
// event (transport.WithFlushWindow), the goroutine runtimes flush when a
// mailbox goes idle. Delaying protocol messages is always safe in the
// asynchronous model; the tick bounds the delay so liveness is preserved.
// A durable process may make the tick its commit point: hold completions
// beside its frames and sync once before releasing both.
type Flusher interface {
	// PendingFlush reports whether anything held awaits a flush tick.
	PendingFlush() bool
	// Flush emits what was held. Calling it with nothing pending is a
	// harmless no-op.
	Flush() Effects
}

// Algorithm constructs the n processes of one protocol instance. Writer is
// the index of the single writer for SWMR protocols; MWMR protocols may
// ignore it.
type Algorithm interface {
	// Name returns a short identifier, e.g. "twobit" or "abd".
	Name() string
	// New creates the process with index id out of n total.
	New(id, n, writer int) Process
}

// Alg adapts a name and a constructor function to Algorithm. It is the
// lightweight way to define algorithm variants — renamed configurations,
// wrappers, or the deliberately broken mutants the schedule explorer uses to
// test its own detection power.
func Alg(name string, newFn func(id, n, writer int) Process) Algorithm {
	return algFunc{name: name, newFn: newFn}
}

type algFunc struct {
	name  string
	newFn func(id, n, writer int) Process
}

func (a algFunc) Name() string { return a.name }

func (a algFunc) New(id, n, writer int) Process { return a.newFn(id, n, writer) }

// Validate checks common constructor arguments and panics on misuse: these
// are programmer errors, not runtime conditions.
func Validate(id, n, writer int) {
	if n < 1 {
		panic(fmt.Sprintf("proto: n = %d, need n >= 1", n))
	}
	if id < 0 || id >= n {
		panic(fmt.Sprintf("proto: process id %d out of range [0,%d)", id, n))
	}
	if writer < 0 || writer >= n {
		panic(fmt.Sprintf("proto: writer %d out of range [0,%d)", writer, n))
	}
}

// WriterSetError reports an invalid writer set handed to a multi-writer
// construction path. It is a typed error so harness layers (cluster, eval)
// can surface configuration mistakes distinctly from runtime failures;
// errors.As-friendly.
type WriterSetError struct {
	N       int
	Writers []int
	Reason  string
}

func (e *WriterSetError) Error() string {
	return fmt.Sprintf("proto: invalid writer set %v for %d processes: %s", e.Writers, e.N, e.Reason)
}

// ValidateWriters checks a multi-writer configuration: the set must be
// non-empty, within [0, n), and free of duplicates. It is the single
// validation point for every construction path that accepts a writer set
// (cluster configs, eval scenarios, workload expansion), returning a
// *WriterSetError describing the first problem, or nil.
func ValidateWriters(n int, writers []int) error {
	fail := func(reason string) error {
		return &WriterSetError{N: n, Writers: append([]int(nil), writers...), Reason: reason}
	}
	if n < 1 {
		return fail(fmt.Sprintf("need n >= 1, got %d", n))
	}
	if len(writers) == 0 {
		return fail("empty writer set")
	}
	if len(writers) > n {
		return fail(fmt.Sprintf("%d writers exceed %d processes", len(writers), n))
	}
	seen := make(map[int]bool, len(writers))
	for _, w := range writers {
		if w < 0 || w >= n {
			return fail(fmt.Sprintf("writer %d out of range [0,%d)", w, n))
		}
		if seen[w] {
			return fail(fmt.Sprintf("duplicate writer %d", w))
		}
		seen[w] = true
	}
	return nil
}

// MaxFaulty returns the largest t with t < n/2, the crash budget the model
// CAMP_{n,t}[t < n/2] tolerates.
func MaxFaulty(n int) int {
	return (n - 1) / 2
}

// QuorumSize returns n - MaxFaulty(n), the size of a majority quorum used by
// all protocols in this repository.
func QuorumSize(n int) int {
	return n - MaxFaulty(n)
}
