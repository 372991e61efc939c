package regmap

import (
	"fmt"
	"sort"

	"twobitreg/internal/core"
	"twobitreg/internal/proto"
)

// KeyedAlgorithm adapts the keyed store to the key-less proto.Process
// harnesses (simulator, schedule explorer, benchmarks): every process runs
// a Node, and each client operation's key is derived from its id
// (KeyOf, a deterministic modulo spread), so one key-less workload drives a
// mixed many-key workload and judges can split the history back per key.
//
// The writer sets come from the Config template; its N is ignored (the
// harness's n applies).
type KeyedAlgorithm struct {
	name     string
	keys     int
	tmpl     Config
	restrict func(key, n int) []int
}

// NewKeyedAlgorithm builds the adapter: name registers it, keys is the
// key-space size, tmpl carries the store options (Coalesce, Fault, writer
// sets; N is ignored).
func NewKeyedAlgorithm(name string, keys int, tmpl Config) KeyedAlgorithm {
	if keys < 1 {
		panic(fmt.Sprintf("regmap: keyed algorithm %q needs at least 1 key, got %d", name, keys))
	}
	return KeyedAlgorithm{name: name, keys: keys, tmpl: tmpl}
}

// NewRestrictedKeyedAlgorithm is NewKeyedAlgorithm with per-key writer-set
// enforcement: restrict(k, n) computes key k's writer set for an n-process
// cluster, and New threads the resulting table through Config.Writers. A
// write whose invoking process is outside its key's set completes
// immediately as Rejected (the ErrNotWriter boundary), without running the
// protocol — so key-less harnesses can drive schedules across rejection
// boundaries and still judge the accepted operations.
func NewRestrictedKeyedAlgorithm(name string, keys int, tmpl Config, restrict func(key, n int) []int) KeyedAlgorithm {
	a := NewKeyedAlgorithm(name, keys, tmpl)
	a.restrict = restrict
	return a
}

// Name implements proto.Algorithm.
func (a KeyedAlgorithm) Name() string { return a.name }

// Keys returns the key-space size.
func (a KeyedAlgorithm) Keys() int { return a.keys }

// KeyOf derives the key index for a client operation: ids spread
// round-robin over the key space, so the mapping is reproducible by any
// judge holding the same algorithm value.
func (a KeyedAlgorithm) KeyOf(op proto.OpID) int { return int((uint64(op) - 1) % uint64(a.keys)) }

// KeyName renders key index k as the store key.
func (a KeyedAlgorithm) KeyName(k int) string { return fmt.Sprintf("k%04d", k) }

// New implements proto.Algorithm. The writer argument is ignored (per-key
// writer sets rule).
func (a KeyedAlgorithm) New(id, n, _ int) proto.Process {
	cfg := a.tmpl
	cfg.N = n
	if a.restrict != nil {
		cfg.Writers = make(map[string][]int, a.keys)
		for k := 0; k < a.keys; k++ {
			cfg.Writers[a.KeyName(k)] = a.restrict(k, n)
		}
	}
	sh, err := newShared(cfg)
	if err != nil {
		panic(fmt.Sprintf("regmap: keyed algorithm %q: %v", a.name, err))
	}
	return &KeyedProc{alg: a, node: newNode(id, sh)}
}

// KeyedProc is one process of a KeyedAlgorithm run: a Node driven through
// the proto.Process interface with derived keys.
type KeyedProc struct {
	alg  KeyedAlgorithm
	node *Node
}

// ID implements proto.Process.
func (p *KeyedProc) ID() int { return p.node.ID() }

// Deliver implements proto.Process.
func (p *KeyedProc) Deliver(from int, msg proto.Message) proto.Effects {
	return p.node.Deliver(from, msg)
}

// StartRead implements proto.Process; the read targets KeyOf(op).
func (p *KeyedProc) StartRead(op proto.OpID) proto.Effects {
	return p.node.Start(p.alg.KeyName(p.alg.KeyOf(op)), op, proto.OpRead, nil)
}

// StartWrite implements proto.Process; the write targets KeyOf(op). A
// write through a process outside the key's writer set does not reach the
// protocol: it completes immediately with Rejected set — the ErrNotWriter
// boundary, surfaced as a terminated-but-ineffective operation so the
// invoking process's schedule continues past it.
func (p *KeyedProc) StartWrite(op proto.OpID, v proto.Value) proto.Effects {
	key := p.alg.KeyName(p.alg.KeyOf(op))
	if !p.node.IsWriter(key, p.node.ID()) {
		var eff proto.Effects
		eff.Done = append(eff.Done, proto.Completion{Op: op, Kind: proto.OpWrite, Rejected: true})
		return eff
	}
	return p.node.Start(key, op, proto.OpWrite, v)
}

// LocalMemoryBits implements proto.Process.
func (p *KeyedProc) LocalMemoryBits() int { return p.node.LocalMemoryBits() }

// PendingFlush implements proto.Flusher (cross-key coalescing under a
// simulator flush window).
func (p *KeyedProc) PendingFlush() bool { return p.node.PendingFlush() }

// Flush implements proto.Flusher.
func (p *KeyedProc) Flush() proto.Effects { return p.node.Flush() }

// RequiresFIFOLinks implements proto.FIFOLinks: every key runs the batched
// lane frames, which assume per-link FIFO delivery (and cross-key
// multi-frames unpack in link order).
func (p *KeyedProc) RequiresFIFOLinks() bool { return true }

// Node exposes the underlying keyed state machine (tests, invariants).
func (p *KeyedProc) Node() *Node { return p.node }

// CheckKeyedInvariants runs the multi-writer lane proof invariants per key
// across a full set of keyed processes, for every key every process
// currently hosts (lazily created registers appear at a process on first
// contact; a key someone has not seen yet is skipped — its invariants are
// vacuous there).
func CheckKeyedInvariants(procs []*KeyedProc) error {
	var c KeyedInvariantChecker
	return c.Check(procs)
}

// KeyedInvariantChecker is CheckKeyedInvariants with reusable scratch: the
// sorted key list (keys are only ever added, so it refreshes only when the
// reference node hosts a new key) and the per-key process slice both
// amortize across post-delivery probes. Not safe for concurrent use; the
// zero value is ready.
type KeyedInvariantChecker struct {
	ic   core.InvariantChecker
	keys []string
	mws  []*core.MWProc
}

// Check runs CheckKeyedInvariants with this checker's scratch.
func (c *KeyedInvariantChecker) Check(procs []*KeyedProc) error {
	if len(procs) == 0 {
		return nil
	}
	nd := procs[0].node
	if len(c.keys) != len(nd.regs) {
		c.keys = c.keys[:0]
		for k := range nd.regs {
			c.keys = append(c.keys, k)
		}
		sort.Strings(c.keys)
	}
	if cap(c.mws) < len(procs) {
		c.mws = make([]*core.MWProc, len(procs))
	}
	for _, key := range c.keys {
		mws := c.mws[:0]
		for _, p := range procs {
			mw := p.node.MW(key)
			if mw == nil {
				break
			}
			mws = append(mws, mw)
		}
		if len(mws) != len(procs) {
			continue
		}
		if err := c.ic.CheckMWMR(mws); err != nil {
			return fmt.Errorf("key %s: %w", key, err)
		}
	}
	return nil
}

var (
	_ proto.Process   = (*KeyedProc)(nil)
	_ proto.Flusher   = (*KeyedProc)(nil)
	_ proto.FIFOLinks = (*KeyedProc)(nil)
	_ proto.Algorithm = KeyedAlgorithm{}
)
