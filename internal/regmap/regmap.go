// Package regmap multiplexes many named registers over one set of
// processes: a keyed configuration/metadata store, the kind of
// read-dominated application the paper's conclusion targets.
//
// Each key is an independent instance of the multi-writer register
// (core.MWProc), so each process hosts one alternating-bit lane per (key,
// process) and writes run the READ/PROCEED freshness round per key. A key's
// writer set (Config) is admission only: writes through other processes are
// refused before they start (Node.IsWriter, cluster.ErrNotWriter), so their
// lanes stay empty. A key with one writer is the same register.
//
// On the wire, a message is the register's own two-bit message wrapped with
// its key (KeyedMsg), so the per-register control information is still
// exactly two bits — the key is addressing, the price of multiplexing, and
// is accounted separately (KeyedMsg.ControlBits includes it, and the
// metrics census subtracts it via the Addressed interface, keeping the
// two-bits-per-logical-entry claim exact rather than overstated).
//
// With Config.Coalesce, frames from different keys headed down the same
// link coalesce into one keyed multi-frame (MultiMsg): a node buffers its
// outgoing keyed frames during a processing burst (the goroutine runtime) or
// a virtual-time flush window (the simulator, proto.Flusher) and ships one
// frame per link. A store serving many keys over one link then pays the
// per-message cost once per burst instead of once per key — the cross-key
// generalization of the lane batching introduced for the multi-writer
// register, reusing its LaneBatchMsg/LaneCompactMsg frames beneath the key
// wrapper.
package regmap

import (
	"errors"
	"fmt"
	"sort"

	"twobitreg/internal/core"
	"twobitreg/internal/metrics"
	"twobitreg/internal/proto"
)

// ErrKeyTooLong rejects keys above MaxKeyLen.
var ErrKeyTooLong = errors.New("regmap: key too long")

// MaxKeyLen bounds key sizes (they travel in every message).
const MaxKeyLen = 255

// Fault selects a deliberately broken store variant for mutation-testing
// the detection machinery. The zero value is the correct protocol.
type Fault uint8

const (
	// FaultNone runs the store unmodified.
	FaultNone Fault = iota
	// FaultDropMultiTail makes a receiver silently drop the last subframe
	// of every cross-key multi-frame — a lost cross-key frame. The key
	// that subframe belonged to runs short of protocol state (a lane entry
	// that never arrives, a READ that is never answered, a PROCEED that
	// never lands), so an operation on that key stalls or reads stale —
	// what the schedule explorer must catch under coalescing workloads.
	FaultDropMultiTail
	// FaultEarlyRelease breaks a storage-attached coalescing node's commit
	// point: a step's frames and completions leave as the step returns,
	// while the sync covering its appends still waits for Flush.
	FaultEarlyRelease
	// FaultLoneMulti ships a lone held subframe as a one-frame MultiMsg.
	// Every node takes it, but the wire encoding refuses it (a multi-frame
	// carries at least two), so only a run whose frames cross wire — the
	// served path, and the explorer's keyed-store runs — can see it.
	FaultLoneMulti
)

// Config configures the Node set of one store.
type Config struct {
	// N is the number of processes.
	N int
	// DefaultWriters is the writer set of keys without an explicit entry in
	// Writers. Empty means every process.
	DefaultWriters []int
	// Writers assigns per-key writer sets, overriding DefaultWriters.
	// Every set is validated through proto.ValidateWriters.
	Writers map[string][]int
	// Coalesce enables cross-key frame coalescing: keyed frames headed
	// down the same link within one processing burst (or simulator flush
	// window) ship as one MultiMsg. Off by default: every keyed frame then
	// ships on its own.
	Coalesce bool
	// Fault selects a deliberately broken variant (mutation testing only).
	Fault Fault
}

// shared is the validated, immutable form of a Config, shared by every node
// of one store instance.
type shared struct {
	n              int
	coalesce       bool
	fault          Fault
	defaultWriters []int
	perKey         map[string][]int
}

// newShared validates cfg. All writer sets go through
// proto.ValidateWriters, so configuration mistakes surface as typed
// *proto.WriterSetError values at construction time.
func newShared(cfg Config) (*shared, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("regmap: N = %d, need at least 1", cfg.N)
	}
	sh := &shared{n: cfg.N, coalesce: cfg.Coalesce, fault: cfg.Fault}
	if len(cfg.DefaultWriters) > 0 {
		if err := proto.ValidateWriters(cfg.N, cfg.DefaultWriters); err != nil {
			return nil, err
		}
		sh.defaultWriters = sortedCopy(cfg.DefaultWriters)
	} else {
		sh.defaultWriters = make([]int, cfg.N)
		for i := range sh.defaultWriters {
			sh.defaultWriters[i] = i
		}
	}
	if len(cfg.Writers) > 0 {
		sh.perKey = make(map[string][]int, len(cfg.Writers))
		for key, ws := range cfg.Writers {
			if len(key) > MaxKeyLen {
				return nil, fmt.Errorf("%w: %q (%d bytes)", ErrKeyTooLong, key, len(key))
			}
			if err := proto.ValidateWriters(cfg.N, ws); err != nil {
				return nil, fmt.Errorf("regmap: key %q: %w", key, err)
			}
			sh.perKey[key] = sortedCopy(ws)
		}
	}
	return sh, nil
}

// writersFor returns key's writer set (sorted; do not mutate).
func (sh *shared) writersFor(key string) []int {
	if ws, ok := sh.perKey[key]; ok {
		return ws
	}
	return sh.defaultWriters
}

func sortedCopy(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}

// KeyedMsg wraps a register message with its key.
type KeyedMsg struct {
	Key   string
	Inner proto.Message
}

// TypeName implements proto.Message.
func (m KeyedMsg) TypeName() string { return m.Inner.TypeName() }

// ControlBits is the inner register's control information (two bits per
// logical entry plus any lane addressing) plus the multiplexing key.
func (m KeyedMsg) ControlBits() int { return m.Inner.ControlBits() + 8*len(m.Key) }

// DataBytes implements proto.Message.
func (m KeyedMsg) DataBytes() int { return m.Inner.DataBytes() }

// LogicalEntries implements metrics.EntryCounter: the inner message's
// entries (one, unless it is a batched lane frame).
func (m KeyedMsg) LogicalEntries() int {
	if ec, ok := m.Inner.(metrics.EntryCounter); ok {
		return ec.LogicalEntries()
	}
	return 1
}

// AddressingBits implements metrics.Addressed: the key bytes plus whatever
// addressing the inner frame declares (lane ids, batch length bytes). The
// census subtracts this from ControlBits, so the per-entry protocol control
// stays exactly two bits.
func (m KeyedMsg) AddressingBits() int {
	bits := 8 * len(m.Key)
	if a, ok := m.Inner.(metrics.Addressed); ok {
		bits += a.AddressingBits()
	}
	return bits
}

// MultiMsg is the cross-key coalescing frame: keyed frames from different
// keys headed down the same link, shipped as one message. Each subframe
// keeps its own key addressing; the uvarint subframe count is framing,
// accounted as addressing like a lane batch's count (core.CountBits).
type MultiMsg struct {
	Frames []KeyedMsg
}

// TypeName returns "MULTI".
func (MultiMsg) TypeName() string { return "MULTI" }

// ControlBits sums the subframes plus the count bytes.
func (m MultiMsg) ControlBits() int {
	bits := core.CountBits(len(m.Frames))
	for _, f := range m.Frames {
		bits += f.ControlBits()
	}
	return bits
}

// DataBytes sums the subframes' payloads.
func (m MultiMsg) DataBytes() int {
	n := 0
	for _, f := range m.Frames {
		n += f.DataBytes()
	}
	return n
}

// LogicalEntries implements metrics.EntryCounter.
func (m MultiMsg) LogicalEntries() int {
	n := 0
	for _, f := range m.Frames {
		n += f.LogicalEntries()
	}
	return n
}

// AddressingBits implements metrics.Addressed: the count bytes plus every
// subframe's addressing.
func (m MultiMsg) AddressingBits() int {
	bits := core.CountBits(len(m.Frames))
	for _, f := range m.Frames {
		bits += f.AddressingBits()
	}
	return bits
}

var (
	_ proto.Message        = KeyedMsg{}
	_ proto.Message        = MultiMsg{}
	_ metrics.EntryCounter = KeyedMsg{}
	_ metrics.Addressed    = KeyedMsg{}
	_ metrics.EntryCounter = MultiMsg{}
	_ metrics.Addressed    = MultiMsg{}
)
