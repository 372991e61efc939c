package core

// durable.go makes the multi-writer register crash-RESTART capable — the
// storage.Recoverable implementation for MWProc. The SWMR Proc is Figure 1
// as written: a crash-stop process, with no log and no restart.
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
// mwmr.go calls syncStorage at its drain fixpoint, before the step's
// Effects go to the transport (under the keyed store that call is the
// dirty signal, and the node syncs once per burst: regmap/durable.go).
// What was never synced was never attested and may be lost in a crash.
//
// Recovery rebuilds only the value histories; every link-synchronisation
// counter restarts at zero. That is deliberate: wSync[j] doubles as the
// receive count of the link from p_j, and frames in flight at the crash
// are gone, so any surviving count would undercount forever — which
// permanently deadlocks the line-3 exact-count wait. Instead the restart
// protocol resets BOTH ends of every link of the revived process
// (PeerRestarted, run by the revived process for every peer and by every
// live peer for the revived one) and re-ships each backlog from position
// zero, which the register's pipelined lanes can always do. The reset is
// the restart protocol's, not the log's: a volatile peer of a durable
// process runs it too. Understating knowledge is the safe direction:
// quorum counts simply re-fill. The freshness counters (rSync) keep their
// benign asymmetry — a peer whose in-flight freshness round died with the
// victim carries a permanently lagging rSync column for it, and quorums
// fill from the n-1 surviving aligned processes.

import (
	"fmt"

	"twobitreg/internal/proto"
	"twobitreg/internal/storage"
)

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

// PeerRestarted implements the restart protocol's link reset for the link
// to `peer`: every lane's knowledge of the peer, send cursor and reorder
// buffer reset, and freshness requests parked for it are dropped (a parked
// READ died with the old incarnation — answering its bar to the new one
// would attest a guard evaluated against vanished state); then each lane's
// backlog re-ships so both quorum counts re-fill. The revived process
// itself calls this for every peer after Recover.
func (p *MWProc) PeerRestarted(peer int) proto.Effects {
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

// syncStorage is the drain-fixpoint durability point. MWFaultWALSkipSync
// (mut-wal-skipsync) skips the sync while still logging — the records stay
// buffered forever and a crash loses every acknowledged write.
func (p *MWProc) syncStorage() {
	if p.store == nil || !p.dirty {
		return
	}
	p.dirty = false
	if p.opts.fault == MWFaultWALSkipSync {
		return
	}
	if err := p.store.Sync(); err != nil {
		panic(fmt.Sprintf("core: process %d stable-storage sync failed: %v", p.id, err))
	}
}

var _ storage.Recoverable = (*MWProc)(nil)
