package core

import "fmt"

// laneInvariants verifies, across the full set of a stream's lanes (one per
// process, owner being the stream's writer), the invariants the paper's
// proof establishes for the alternating-bit discipline:
//
//	Lemma 2:    w_sync_i[i] >= w_sync_j[i] for all i, j.
//	Lemma 3:    w_sync_i[i] == max_j w_sync_i[j].
//	Lemma 4:    every history_i is a prefix of the owner's history.
//	Property P2: |w_sync_i[j] - w_sync_j[i]| <= 1 for all pairs.
//	Property P1: the line-11 reorder buffer never held more than one
//	             message per peer at a quiescent point.
//
// The proofs only use that exactly one process appends to the stream, so the
// same invariants hold lane-by-lane in the multi-writer register; multi-lane
// callers wrap violations with the offending stream's label.
//
// Pipelined lanes (the batched multi-writer register) deliberately relax
// the one-outstanding-message flow control that Properties P1 and P2 rest
// on: several frames may be in flight per link, so the quiescent reorder
// depth can exceed 1 and pairwise knowledge can lag by a whole backlog.
// For them, P1 and P2 are replaced by the per-link conservation bound that
// pipelining actually guarantees — the messages p_i has processed from p_j
// plus those still parked cannot exceed what p_j holds (each index crosses
// each link at most once, in order):
//
//	Conservation: w_sync_i[j] + parked_i[j] <= w_sync_j[j].
//
// (A pipelined lane also owes rather than sends on links where nobody waits
// for its echoes, Lane.lazy. No frame size bounds what it owes: the next
// ShipBacklog carries any run, cut only between stretches of equal values.)
//
// Lemmas 2, 3 and 4 are framing-independent and checked in both modes.
func laneInvariants(lanes []*Lane, owner int) error {
	ownerLane := lanes[owner]
	n := len(lanes)
	pipelined := ownerLane.pipelined

	for i, li := range lanes {
		// Lemma 3.
		maxSeen := 0
		for j := 0; j < n; j++ {
			if li.wSync[j] > maxSeen {
				maxSeen = li.wSync[j]
			}
		}
		if li.wSync[i] != maxSeen {
			return fmt.Errorf("lemma 3 violated at p%d: w_sync[%d]=%d but max=%d", i, i, li.wSync[i], maxSeen)
		}

		// Property P1 (strict lanes) / conservation (pipelined lanes).
		if !pipelined && li.maxPending > 1 {
			return fmt.Errorf("property P1 violated at p%d: reorder buffer depth %d > 1", i, li.maxPending)
		}
		if pipelined {
			for j, lj := range lanes {
				if j == i {
					continue
				}
				if got := li.wSync[j] + li.PendingDepth(j); got > lj.wSync[j] {
					return fmt.Errorf("conservation violated at p%d: processed %d + parked %d from p%d exceeds its holdings %d", i, li.wSync[j], li.PendingDepth(j), j, lj.wSync[j])
				}
			}
		}

		// Lemma 4: history_i must be a prefix of the owner's history
		// (compared on the range both processes still retain, when GC is
		// active). Pipelined lanes weaken the entry-wise equality: the
		// Rule-R2 rejoin catch-up re-anchors a dominated prefix with the
		// stream's quorum-stable top (Lane.ShipBacklog), so an entry may
		// instead be a copy of a LATER owner entry. Index order and the
		// prefix-length bound still hold.
		if li.HistoryLen() > ownerLane.HistoryLen() {
			return fmt.Errorf("lemma 4 violated: p%d has %d entries, writer has %d", i, li.HistoryLen(), ownerLane.HistoryLen())
		}
		lo := li.histBase
		if ownerLane.histBase > lo {
			lo = ownerLane.histBase
		}
		for x := lo; x < li.HistoryLen(); x++ {
			if li.histAt(x).Equal(ownerLane.histAt(x)) {
				continue
			}
			if !pipelined {
				return fmt.Errorf("lemma 4 violated: p%d history[%d] differs from writer", i, x)
			}
			reanchored := false
			for y := x + 1; y < ownerLane.HistoryLen(); y++ {
				if li.histAt(x).Equal(ownerLane.histAt(y)) {
					reanchored = true
					break
				}
			}
			if !reanchored {
				return fmt.Errorf("lemma 4 (re-anchored) violated: p%d history[%d] matches no owner entry at or above %d", i, x, x)
			}
		}

		for j, lj := range lanes {
			// Lemma 2.
			if li.wSync[i] < lj.wSync[i] {
				return fmt.Errorf("lemma 2 violated: w_sync_%d[%d]=%d < w_sync_%d[%d]=%d", i, i, li.wSync[i], j, i, lj.wSync[i])
			}
			// Property P2 (strict lanes only; pipelined knowledge may lag
			// by a whole in-flight backlog and is bounded by conservation
			// instead).
			if d := li.wSync[j] - lj.wSync[i]; !pipelined && (d > 1 || d < -1) {
				return fmt.Errorf("property P2 violated: |w_sync_%d[%d]-w_sync_%d[%d]| = |%d-%d| > 1", i, j, j, i, li.wSync[j], lj.wSync[i])
			}
		}
	}
	return nil
}

// CheckGlobalInvariants verifies the paper's proof invariants across a full
// set of SWMR processes. It is intended as a post-delivery hook under the
// simulator (the checks read shared state and are only sound between atomic
// steps). It returns the first violation found, or nil.
func CheckGlobalInvariants(procs []*Proc) error {
	var c InvariantChecker
	return c.CheckSWMR(procs)
}

// CheckMWGlobalInvariants verifies the per-lane proof invariants across a
// full set of multi-writer processes: every writer's stream must satisfy the
// same lemmas the SWMR proof establishes, with that writer as the lane
// owner. Like CheckGlobalInvariants it is a between-steps probe for the
// simulator. Every process owns a lane, so every process's stream is
// checked; a stream nobody wrote is checked empty.
func CheckMWGlobalInvariants(procs []*MWProc) error {
	var c InvariantChecker
	return c.CheckMWMR(procs)
}

// InvariantChecker runs the global invariant probes with reusable scratch.
// Post-delivery hooks probe after every delivery, so the per-probe lane
// slice (and any violation label, now built only on failure) is off the
// sweep hot path when one checker is kept across probes. A checker is not
// safe for concurrent use; the zero value is ready.
type InvariantChecker struct {
	lanes []*Lane
}

// CheckSWMR is CheckGlobalInvariants with this checker's scratch.
func (c *InvariantChecker) CheckSWMR(procs []*Proc) error {
	if len(procs) == 0 {
		return nil
	}
	lanes := c.scratch(len(procs))
	for i, p := range procs {
		lanes[i] = p.lane
	}
	return laneInvariants(lanes, procs[0].writer)
}

// CheckMWMR is CheckMWGlobalInvariants with this checker's scratch.
func (c *InvariantChecker) CheckMWMR(procs []*MWProc) error {
	if len(procs) == 0 {
		return nil
	}
	lanes := c.scratch(len(procs))
	for w := range procs[0].lanes {
		for i, p := range procs {
			lanes[i] = p.lanes[w]
		}
		if err := laneInvariants(lanes, w); err != nil {
			return fmt.Errorf("lane %d: %w", w, err)
		}
	}
	return nil
}

func (c *InvariantChecker) scratch(n int) []*Lane {
	if cap(c.lanes) < n {
		c.lanes = make([]*Lane, n)
	}
	return c.lanes[:n]
}
