package core

// durable.go makes the register processes crash-RESTART capable — the
// storage.Recoverable implementation for Proc and MWProc.
//
// The paper's model is crash-stop; real deployments are crash-restart:
// a process comes back and must not have forgotten any write it helped
// acknowledge. The durability contract that achieves this is small:
//
//	log every lane append; sync before any attestation leaves.
//
// Every outbound message attests to lane state — a WRITE echo fills the
// sender's line-3 quorum, a PROCEED certifies a freshness bar, a
// completion acknowledges a write — so a process syncs where it releases:
// core.go / mwmr.go call syncStorage at their drain fixpoints, before the
// step's Effects go to the transport (under the keyed store that call is
// the dirty signal, and the node syncs once per burst: regmap/durable.go).
// What was never synced was never attested and may be lost in a crash.
//
// Recovery rebuilds only the value histories; every link-synchronisation
// counter restarts at zero. That is deliberate: wSync[j] doubles as the
// receive count of the link from p_j, and frames in flight at the crash
// are gone, so any surviving count would undercount forever — which
// permanently deadlocks the line-3 exact-count wait. Instead the restart
// protocol resets BOTH ends of every link of the revived process
// (PeerRestarted here, run by the revived process for every peer and by
// every live peer for the revived one) and re-ships each backlog from
// position zero. Understating knowledge is the safe direction: quorum
// counts simply re-fill. The freshness counters (rSync) keep their
// benign asymmetry — a peer whose in-flight freshness round died with
// the victim carries a permanently lagging rSync column for it, and
// quorums fill from the n-1 surviving aligned processes.
//
// Re-shipping a whole backlog needs pipelined lanes (the strict protocol
// announces one index per round trip and cannot jump a link's position
// back to zero), so AttachStorage on the SWMR Proc also enables lane
// pipelining — identical to the strict discipline at steady state (one
// in-flight frame per link), differing only during catch-up. Variants
// whose state cannot be replayed or re-shipped report RecoveryEnabled
// false and degrade to plain crash-stop under the restart adversary:
// explicit-seqnum lanes cannot pipeline, and GC'd histories cannot replay
// from index 1. The multi-writer register's lanes are always pipelined,
// so it always recovers.

import (
	"fmt"

	"twobitreg/internal/proto"
	"twobitreg/internal/storage"
)

// --- SWMR Proc ---

// RecoveryEnabled implements storage.Recoverable: crash-restart recovery
// needs a replayable history (no GC) and pipelined catch-up (no explicit
// sequence numbers).
func (p *Proc) RecoveryEnabled() bool {
	return !p.opts.explicitSeqnums && !p.opts.gcHistory
}

// AttachStorage arms durability logging: every lane append is logged and
// synced before the appending step's messages release. Must be called
// before any message flows (it switches the lane to pipelined sending,
// which restart catch-up requires).
func (p *Proc) AttachStorage(s storage.StableStorage) {
	if !p.RecoveryEnabled() {
		panic(fmt.Sprintf("core: process %d cannot attach storage (recovery disabled for this configuration)", p.id))
	}
	if p.store != nil {
		panic(fmt.Sprintf("core: process %d already has storage attached", p.id))
	}
	p.store = s
	if !p.lane.Pipelined() {
		p.lane.EnablePipelining()
	}
	p.lane.OnAppend(func(index int, v proto.Value) {
		s.Append(storage.Record{Lane: p.writer, Index: index, Val: v})
		p.dirty = true
	})
}

// Recover replays a fresh process's durable state from s and attaches s
// for further logging. The process must be newly constructed with the
// same parameters as the crashed incarnation.
func (p *Proc) Recover(s storage.StableStorage) error {
	if err := s.Replay(func(rec storage.Record) error {
		if rec.Key != "" {
			return fmt.Errorf("core: process %d replaying keyed record %q into a bare register", p.id, rec.Key)
		}
		return p.RecoverRecord(rec)
	}); err != nil {
		return err
	}
	p.AttachStorage(s)
	return nil
}

// RecoverRecord replays one durable lane append (the keyed store routes
// records here after stripping its key). Only valid before AttachStorage.
func (p *Proc) RecoverRecord(rec storage.Record) error {
	if rec.Lane != p.writer {
		return fmt.Errorf("core: process %d replaying record for lane %d (writer is %d)", p.id, rec.Lane, p.writer)
	}
	return p.lane.RecoverAppend(rec.Index, rec.Val)
}

// PeerRestarted implements the restart protocol's link reset for the
// link to `peer`: this process's knowledge of the peer, the link's send
// cursor and reorder buffer, and any freshness request parked for it all
// reset (a parked READ died with the old incarnation — answering its bar
// to the new one would attest a guard evaluated against vanished state);
// then the whole local backlog re-ships so both quorum counts re-fill.
// The revived process itself calls this for every peer after Recover.
func (p *Proc) PeerRestarted(peer int) proto.Effects {
	if p.store == nil {
		panic(fmt.Sprintf("core: process %d PeerRestarted without storage attached", p.id))
	}
	eff := proto.Effects{Sends: p.sends[:0]}
	defer func() { p.sends = eff.Sends }()
	p.lane.ResetLink(peer)
	kept := p.pendingReads[:0]
	for _, pr := range p.pendingReads {
		if pr.from != peer {
			kept = append(kept, pr)
		}
	}
	p.pendingReads = kept
	if p.lane.Top() > 0 {
		p.lane.ShipBacklog(peer, p.emit(&eff))
	}
	p.drain(&eff)
	return eff
}

// RequiresFIFOLinks implements proto.FIFOLinks: a storage-attached
// process runs its lane pipelined (see AttachStorage), which gives up
// the reorder tolerance of the strict one-in-flight pacing.
func (p *Proc) RequiresFIFOLinks() bool { return p.lane.Pipelined() }

// syncStorage is the drain-fixpoint durability point. FaultWALSkipSync
// (mut-wal-skipsync) skips the sync while still logging — the records
// stay buffered forever and a crash loses every acknowledged write.
func (p *Proc) syncStorage() {
	if p.store == nil || !p.dirty {
		return
	}
	p.dirty = false
	if p.opts.fault == FaultWALSkipSync {
		return
	}
	if err := p.store.Sync(); err != nil {
		panic(fmt.Sprintf("core: process %d stable-storage sync failed: %v", p.id, err))
	}
}

// --- multi-writer MWProc ---

// RecoveryEnabled implements storage.Recoverable: restart catch-up
// re-ships whole backlogs, which the register's pipelined lanes always can.
func (p *MWProc) RecoveryEnabled() bool { return true }

// AttachStorage arms durability logging on every lane: appends to writer
// w's stream log as Records with Lane w. Must be called before any
// message flows.
func (p *MWProc) AttachStorage(s storage.StableStorage) {
	if p.store != nil {
		panic(fmt.Sprintf("core: process %d already has storage attached", p.id))
	}
	p.store = s
	for w, l := range p.lanes {
		l.OnAppend(func(index int, v proto.Value) {
			s.Append(storage.Record{Lane: w, Index: index, Val: v})
			p.dirty = true
		})
	}
}

// Recover replays a fresh process's durable state from s and attaches s.
func (p *MWProc) Recover(s storage.StableStorage) error {
	if err := s.Replay(func(rec storage.Record) error {
		if rec.Key != "" {
			return fmt.Errorf("core: process %d replaying keyed record %q into a bare register", p.id, rec.Key)
		}
		return p.RecoverRecord(rec)
	}); err != nil {
		return err
	}
	p.AttachStorage(s)
	return nil
}

// RecoverRecord replays one durable lane append onto its writer's lane.
func (p *MWProc) RecoverRecord(rec storage.Record) error {
	if rec.Lane < 0 || rec.Lane >= p.n {
		return fmt.Errorf("core: process %d replaying record for unknown lane %d of %d", p.id, rec.Lane, p.n)
	}
	// A register with a past has forgotten who was waiting on it, so none
	// of its links starts out lazy: what it recovered is the restart
	// protocol's to re-ship (PeerRestarted), not an owed run.
	for j := range p.serving {
		p.serving[j] = j != p.id
	}
	return p.lanes[rec.Lane].RecoverAppend(rec.Index, rec.Val)
}

// PeerRestarted resets every lane's link to `peer` (and drops freshness
// requests parked for it), then re-ships each lane's backlog. See the
// SWMR variant for the protocol.
func (p *MWProc) PeerRestarted(peer int) proto.Effects {
	if p.store == nil {
		panic(fmt.Sprintf("core: process %d PeerRestarted without storage attached", p.id))
	}
	eff := proto.Effects{Sends: p.sends[:0]}
	defer func() { p.sends = eff.Sends }()
	for _, l := range p.lanes {
		l.ResetLink(peer)
	}
	// Whoever waited on this link in the peer's previous incarnation may
	// still be waiting, and the READ that said so went to an incarnation
	// that is gone: the link is forwarded on from here. (The revived end
	// watches every link of a register it recovered — RecoverRecord — and
	// this one when the register is born after the restart.)
	p.serving[peer] = true
	kept := p.pendingSyncs[:0]
	for _, ps := range p.pendingSyncs {
		if ps.from == peer {
			p.putSN(ps.sn)
			continue
		}
		kept = append(kept, ps)
	}
	p.pendingSyncs = kept
	for w, l := range p.lanes {
		if l.Top() > 0 {
			l.ShipBacklog(peer, p.emitLane(w))
		}
	}
	p.drain(&eff)
	return eff
}

// syncStorage is the drain-fixpoint durability point (no skip-sync
// mutant exists for the multi-writer register).
func (p *MWProc) syncStorage() {
	if p.store == nil || !p.dirty {
		return
	}
	p.dirty = false
	if err := p.store.Sync(); err != nil {
		panic(fmt.Sprintf("core: process %d stable-storage sync failed: %v", p.id, err))
	}
}

// --- fast-read FastProc: recovery delegates to the embedded engine ---

// RecoveryEnabled delegates to the embedded classic engine.
func (fp *FastProc) RecoveryEnabled() bool { return fp.p.RecoveryEnabled() }

// AttachStorage delegates to the embedded classic engine (the fast-read
// layer holds no durable state: an in-flight fast read dies with its
// process like any other operation).
func (fp *FastProc) AttachStorage(s storage.StableStorage) { fp.p.AttachStorage(s) }

// Recover delegates to the embedded classic engine.
func (fp *FastProc) Recover(s storage.StableStorage) error { return fp.p.Recover(s) }

// PeerRestarted delegates the link reset to the embedded engine. The
// fast-read answer path needs no extra reset: a PROCEEDF sent after the
// reset reports the lowered positions (confirmedIndex drops with the
// zeroed column), which can only force a reader into the slow confirm
// path — the conservative direction.
func (fp *FastProc) PeerRestarted(peer int) proto.Effects { return fp.p.PeerRestarted(peer) }

// RequiresFIFOLinks delegates to the embedded engine.
func (fp *FastProc) RequiresFIFOLinks() bool { return fp.p.RequiresFIFOLinks() }

var (
	_ storage.Recoverable = (*Proc)(nil)
	_ storage.Recoverable = (*MWProc)(nil)
	_ storage.Recoverable = (*FastProc)(nil)
	_ proto.FIFOLinks     = (*Proc)(nil)
)
