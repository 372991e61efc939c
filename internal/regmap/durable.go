package regmap

// durable.go fans the crash-restart recovery contract (storage.Recoverable)
// out across a keyed store node: one stable-storage log per node, shared by
// every hosted register through a key-stamping view, so a single WAL replay
// rebuilds the whole key space, and one sync point: what the node has told
// a peer or a client is on stable storage, synced where the node releases.
// The per-register protocol (replay the histories, reset both ends of
// every link, re-ship backlogs) lives in core/durable.go.

import (
	"fmt"

	"twobitreg/internal/proto"
	"twobitreg/internal/storage"
)

// keyStore is the key-stamping view of the node's log one register writes
// through: appends gain the register's key, and Sync — a register's call
// once a step has appended — only marks the node dirty; the node itself
// syncs, once, where it releases (endStep, Flush).
type keyStore struct {
	key string
	nd  *Node
}

func (k keyStore) Append(r storage.Record) {
	r.Key = k.key
	k.nd.store.Append(r)
}

func (k keyStore) Sync() error { k.nd.dirty = true; return nil }

func (k keyStore) Replay(fn func(storage.Record) error) error {
	return k.nd.store.Replay(func(r storage.Record) error {
		if r.Key != k.key {
			return nil
		}
		r.Key = ""
		return fn(r)
	})
}

func (k keyStore) Close() error { return nil }

// endStep applies the one durability rule — the node syncs where it
// releases — to a step: a non-coalescing node releases as the step returns,
// so it commits here (one sync however many registers the step dirtied); a
// coalescing node holds the step's completions beside its frames for Flush.
func (nd *Node) endStep(out *proto.Effects) {
	switch {
	case nd.store == nil:
	case nd.hold == nil:
		nd.commit()
	case nd.sh.fault == FaultEarlyRelease:
		nd.releaseFrames(out) // mutant: the sync still waits for Flush
	default:
		nd.doneHeld = append(nd.doneHeld, out.Done...)
		out.Done = nil
	}
}

// commit syncs what was appended since the last release, or fails stop.
func (nd *Node) commit() {
	if !nd.dirty {
		return
	}
	nd.dirty = false
	if err := nd.store.Sync(); err != nil {
		panic(fmt.Sprintf("regmap: process %d stable-storage sync failed: %v", nd.id, err))
	}
}

// AttachStorage arms durability logging on every hosted register, current
// and future (lazily created registers attach at creation). Must be called
// before any message flows.
func (nd *Node) AttachStorage(s storage.StableStorage) {
	if nd.store != nil {
		panic(fmt.Sprintf("regmap: node %d already has storage attached", nd.id))
	}
	nd.store = s
	for _, key := range nd.Keys() {
		nd.regs[key].mw.AttachStorage(keyStore{key: key, nd: nd})
	}
}

// Recover replays a fresh node's durable state from s — creating each
// logged key's register on first contact, exactly as live traffic would —
// and attaches s for further logging.
func (nd *Node) Recover(s storage.StableStorage) error {
	if nd.store != nil {
		return fmt.Errorf("regmap: node %d Recover after storage attach", nd.id)
	}
	if err := s.Replay(func(rec storage.Record) error {
		r := nd.reg(rec.Key)
		key := rec.Key
		rec.Key = ""
		if err := r.mw.RecoverRecord(rec); err != nil {
			return fmt.Errorf("key %s: %w", key, err)
		}
		return nil
	}); err != nil {
		return err
	}
	nd.AttachStorage(s)
	return nil
}

// PeerRestarted runs the link reset for peer across every hosted register
// (sorted key order, so the emitted catch-up traffic is deterministic) and
// routes the resulting re-ship frames through the ordinary keyed emit
// path — coalesced stores buffer them for the next flush tick like any
// other burst.
func (nd *Node) PeerRestarted(peer int) proto.Effects {
	// Purge coalescer frames held for the peer first: they were addressed
	// to its previous incarnation, and the lane cursors that counted them
	// are about to reset. Left in place they would flush AFTER the
	// revival — past the transport's incarnation fence — and duplicate
	// the re-shipped backlog. A real stream transport does the same by
	// discarding the peer's send queue when its connection drops.
	if nd.hold != nil && len(nd.hold[peer]) > 0 {
		nd.held -= len(nd.hold[peer])
		nd.hold[peer] = nil
	}
	out := proto.Effects{Sends: nd.sends[:0]}
	defer func() { nd.sends = out.Sends }()
	if nd.reset == nil {
		nd.reset = make([]bool, nd.sh.n)
	}
	nd.reset[peer] = true // registers created later start from the reset link too
	for _, key := range nd.Keys() {
		r := nd.regs[key]
		nd.pump(key, r, r.mw.PeerRestarted(peer), &out)
	}
	nd.endStep(&out)
	return out
}

// --- KeyedProc: recovery delegates to the node ---

// AttachStorage delegates to the node.
func (p *KeyedProc) AttachStorage(s storage.StableStorage) { p.node.AttachStorage(s) }

// Recover delegates to the node.
func (p *KeyedProc) Recover(s storage.StableStorage) error { return p.node.Recover(s) }

// PeerRestarted delegates to the node.
func (p *KeyedProc) PeerRestarted(peer int) proto.Effects { return p.node.PeerRestarted(peer) }

var (
	_ storage.StableStorage = keyStore{}
	_ storage.Recoverable   = (*Node)(nil)
	_ storage.Recoverable   = (*KeyedProc)(nil)
)
