package explore

import (
	"strings"
	"testing"

	"twobitreg/internal/core"
	"twobitreg/internal/regmap"
)

// TestQuorumAckSeesCoalescedProceed guards the crashwrite strategy against
// the keyed store's coalescer: a PROCEED hidden inside a cross-key
// multi-frame must still count as a quorum acknowledgement, or crashwrite
// schedules over regmap algorithms would silently never crash their
// victims.
func TestQuorumAckSeesCoalescedProceed(t *testing.T) {
	t.Parallel()
	if !isQuorumAck(regmap.KeyedMsg{Key: "k", Inner: core.ProceedMsg{}}) {
		t.Fatal("keyed PROCEED not recognized")
	}
	hidden := regmap.MultiMsg{Frames: []regmap.KeyedMsg{
		{Key: "a", Inner: core.LaneMsg{Writer: 0, M: core.WriteMsg{Bit: 1}}},
		{Key: "b", Inner: core.ProceedMsg{}},
	}}
	if !isQuorumAck(hidden) {
		t.Fatal("PROCEED coalesced into a multi-frame not recognized")
	}
	ackFree := regmap.MultiMsg{Frames: []regmap.KeyedMsg{
		{Key: "a", Inner: core.ReadMsg{}},
		{Key: "b", Inner: core.LaneMsg{Writer: 1, M: core.WriteMsg{}}},
	}}
	if isQuorumAck(ackFree) {
		t.Fatal("ack-free multi-frame misclassified as a quorum ack")
	}
}

// TestRegmapMWMRAllStrategies is the keyed-store acceptance matrix: a mixed
// workload over the 200-key store (regmap-mwmr-wide) with 3 concurrent
// writers at a 10:1 hot-writer skew must pass the per-key checker pass
// (check.For on every key's sub-history) under every adversary strategy,
// with the writer streams actually interleaving.
func TestRegmapMWMRAllStrategies(t *testing.T) {
	t.Parallel()
	for _, strat := range StrategyNames() {
		strat := strat
		t.Run(strat, func(t *testing.T) {
			t.Parallel()
			overlapped := false
			for seed := int64(1); seed <= 4; seed++ {
				s := Schedule{
					Alg: "regmap-mwmr-wide", Strategy: strat, Seed: seed,
					N: 5, Ops: 60, ReadFrac: 0.6, Crashes: 1, Writers: 3, Skew: 10,
				}
				r, err := Run(s)
				if err != nil {
					t.Fatal(err)
				}
				if r.Failed() {
					t.Fatalf("seed %d failed: %s (token %s)", seed, r.Violation(), r.Token)
				}
				if r.Checker != "per-key" {
					t.Fatalf("keyed store judged by %q, want the per-key checker pass", r.Checker)
				}
				if r.WriteOverlaps > 0 {
					overlapped = true
				}
			}
			if !overlapped {
				t.Fatalf("no pair of writes from different writers overlapped across seeds — the schedule family is not multi-writer")
			}
		})
	}
}

// TestRegmapMWMRDeterministic is the keyed store's replay-determinism gate:
// the same descriptor must reproduce byte-identical fingerprints, across
// coalescing (flush-window) runs and skewed workloads alike, and distinct
// seeds must explore distinct runs.
func TestRegmapMWMRDeterministic(t *testing.T) {
	t.Parallel()
	for _, alg := range []string{"regmap-mwmr", "regmap-mwmr-wide"} {
		s := Schedule{
			Alg: alg, Strategy: "race", Seed: 11,
			N: 5, Ops: 50, ReadFrac: 0.5, Crashes: 1, Writers: 3, Skew: 10,
		}
		a, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if a.Fingerprint != b.Fingerprint || a.Events != b.Events || a.Msgs != b.Msgs {
			t.Fatalf("%s: same descriptor diverged: %s/%d/%d vs %s/%d/%d",
				alg, a.Fingerprint, a.Events, a.Msgs, b.Fingerprint, b.Events, b.Msgs)
		}
		s2 := s
		s2.Seed = 12
		c, err := Run(s2)
		if err != nil {
			t.Fatal(err)
		}
		if c.Fingerprint == a.Fingerprint {
			t.Fatalf("%s: seeds 11 and 12 produced identical fingerprints — the seed is not reaching the run", alg)
		}
	}
}

// TestSkewTokenRoundTrip pins the 11-field token form: skew serializes with
// the writer count and (possibly zero) pct depth in fixed columns, parses
// back, and is rejected in the forms that would silently change semantics.
func TestSkewTokenRoundTrip(t *testing.T) {
	t.Parallel()
	s := Schedule{
		Alg: "regmap-mwmr", Strategy: "burst", Seed: 7,
		N: 5, Ops: 40, ReadFrac: 0.5, Crashes: 1, Writers: 3, Skew: 10,
	}
	tok := s.Token()
	if want := "xb1:regmap-mwmr:burst:7:5:40:0.5:1:3:0:10"; tok != want {
		t.Fatalf("token = %q, want %q", tok, want)
	}
	got, err := ParseToken(tok)
	if err != nil {
		t.Fatal(err)
	}
	if got != s {
		t.Fatalf("round trip changed the schedule: %+v vs %+v", got, s)
	}
	// A skewed pct schedule keeps its depth in column 10.
	s.Strategy, s.PCT = "pct", 3
	got, err = ParseToken(s.Token())
	if err != nil {
		t.Fatal(err)
	}
	if got != s {
		t.Fatalf("pct+skew round trip changed the schedule: %+v vs %+v", got, s)
	}
	for _, bad := range []string{
		"xb1:regmap-mwmr:burst:7:5:40:0.5:1:3:0:1", // skew < 2 must not reach an 11th field
		"xb1:regmap-mwmr:burst:7:5:40:0.5:1:3:0",   // pct 0 in the 10-field form
	} {
		if _, err := ParseToken(bad); err == nil {
			t.Fatalf("token %q parsed; want a shape error", bad)
		}
	}
	// Skew without a multi-writer schedule is a descriptor error.
	if _, err := Run(Schedule{Alg: "regmap-mwmr", Strategy: "burst", Seed: 1, N: 3, Ops: 5, ReadFrac: 0.5, Skew: 4}); err == nil {
		t.Fatal("single-writer skewed schedule ran; want a validation error")
	} else if !strings.Contains(err.Error(), "skew") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestRegmapCoalescingProducesMultiFrames asserts the cross-key coalescer
// is actually exercised under exploration: coalesced frames carry several
// logical keyed messages each, so the run's logical-entry count must
// strictly exceed its frame count (Entries == Msgs would mean every frame
// shipped alone and the flush window never merged anything). The
// mut-regmap-frame mutant being caught in ~1 run — see
// TestMutantsAreCaughtWithinBudget — is the behavioral complement.
func TestRegmapCoalescingProducesMultiFrames(t *testing.T) {
	t.Parallel()
	s := Schedule{
		Alg: "regmap-mwmr", Strategy: "race", Seed: 3,
		N: 5, Ops: 60, ReadFrac: 0.5, Writers: 3,
	}
	r, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed() {
		t.Fatalf("clean schedule failed: %s", r.Violation())
	}
	if r.Msgs <= 0 {
		t.Fatal("run sent no messages")
	}
	if r.Entries <= r.Msgs {
		t.Fatalf("entries %d <= frames %d — cross-key coalescing never merged a burst", r.Entries, r.Msgs)
	}
}

// TestRegmapLoneMultiCaughtToken pins the witness that keyed-store runs
// deliver what wire decodes (mut-regmap-lonemulti: the coalescer ships a
// lone subframe as a one-frame multi-frame, which every node takes and wire
// refuses): the committed token must keep failing on the codec, and the
// correct store must pass the same descriptor.
func TestRegmapLoneMultiCaughtToken(t *testing.T) {
	t.Parallel()
	const token = "xb1:mut-regmap-lonemulti:uniform:1:5:30:0.6:1:3"
	s, err := ParseToken(token)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Violation(), "does not cross wire") {
		t.Fatalf("token %s: violation %q, want a frame that does not cross wire", token, r.Violation())
	}
	s.Alg = "regmap-mwmr"
	if r, err = Run(s); err != nil {
		t.Fatal(err)
	}
	if r.Failed() {
		t.Fatalf("correct store fails the mutant's descriptor %s: %s", r.Token, r.Violation())
	}
}
