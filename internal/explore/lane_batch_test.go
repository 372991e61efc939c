package explore

import (
	"strings"
	"testing"
)

// TestCrashwriteStrategyRegistered pins the new adversary and the batching
// registry metadata: crashwrite is a selectable strategy, and the torn-batch
// mutant is registered and MWMR-capable.
func TestCrashwriteStrategyRegistered(t *testing.T) {
	t.Parallel()
	if _, ok := strategyByName("crashwrite"); !ok {
		t.Fatalf("crashwrite missing from strategies %v", StrategyNames())
	}
	if doc, ok := StrategyDoc("crashwrite"); !ok || !strings.Contains(doc, "freshness") {
		t.Fatalf("crashwrite doc = %q, want the freshness-boundary description", doc)
	}
	if _, ok := ByName("mut-lane-batch"); !ok || !MWMRCapable("mut-lane-batch") {
		t.Fatalf("mut-lane-batch registered=%v, MWMR-capable=%v", ok, MWMRCapable("mut-lane-batch"))
	}
}

// TestCrashwriteKillsWritersMidWrite drives the crashwrite strategy over
// the batched register: every run must be clean (a correctly batched
// protocol survives a writer dying at its freshness-round/append boundary),
// deterministic, and somewhere in the sweep the crash must actually cut a
// write off mid-flight (a pending op in the history) — the evidence that
// the trigger lands inside the padded-append window rather than between
// operations.
func TestCrashwriteKillsWritersMidWrite(t *testing.T) {
	t.Parallel()
	sawPending := false
	for seed := int64(1); seed <= 30; seed++ {
		s := Schedule{
			Alg: "twobit-mwmr", Strategy: "crashwrite", Seed: seed,
			N: 5, Ops: 30, ReadFrac: 0.4, Crashes: 1, Writers: 3,
		}
		r, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if r.Failed() {
			t.Fatalf("violation on %s: %s", r.Token, r.Violation())
		}
		if r.Pending > 0 {
			sawPending = true
		}
		r2, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if r2.Fingerprint != r.Fingerprint {
			t.Fatalf("crashwrite replay diverged on %s", r.Token)
		}
	}
	if !sawPending {
		t.Fatal("no crashwrite run left a pending operation — the crash never landed inside an operation")
	}
}

// TestPaddingWitnessesStayClean replays the two committed schedules closest
// to a split padded run: on them the pre-batching register (publishing a
// padded write's indices one round trip at a time, deleted at PR 29) let a
// reader pin an intermediate index and lost atomicity. The batched register
// adopts a run in one step from one frame, so no intermediate index is ever
// readable, and both runs must stay clean.
func TestPaddingWitnessesStayClean(t *testing.T) {
	t.Parallel()
	for _, tok := range []string{
		"xb1:twobit-mwmr:race:7:5:40:0.4:1:4",
		"xb1:twobit-mwmr:burst:12:5:40:0.4:1:4",
	} {
		s, err := ParseToken(tok)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if r.Failed() {
			t.Fatalf("%s: %s", tok, r.Violation())
		}
	}
}

// TestLaneResendCaughtToken pins a replayable witness for the twice-crossed
// link (mut-lane-resend: a relay forwards a run's second index without
// advancing the link's send cursor): the committed token must keep failing
// on a lane invariant — the receiver's count of the relay overtakes what
// the relay holds — and the correct register must pass the same descriptor.
func TestLaneResendCaughtToken(t *testing.T) {
	t.Parallel()
	const token = "xb1:mut-lane-resend:uniform:1:5:30:0.6:1:3"
	caughtByToken(t, token, "mut-lane-resend")
	s, err := ParseToken(token)
	if err != nil {
		t.Fatal(err)
	}
	s.Alg = "twobit-mwmr"
	r, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed() {
		t.Fatalf("correct register fails the mutant's descriptor %s: %s", r.Token, r.Violation())
	}
}

// TestLaneSplitRunCaughtToken pins the witness that lane runs must not be
// cut inside a padded write (mut-lane-splitrun: the emitter ends every frame
// after two entries, as the one-byte count did after 255): the committed
// crash-free token must keep failing on atomicity — a read pinned on an
// intermediate padded index orders w2.000003 against w1.000006 both ways —
// and the correct register, which ships each stretch in one frame, must
// pass the same descriptor.
func TestLaneSplitRunCaughtToken(t *testing.T) {
	t.Parallel()
	const token = "xb1:mut-lane-splitrun:burst:22:3:60:0.6:0:3"
	s, err := ParseToken(token)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	const want = `no write order serializes value "w2.000003" (write 20) and value "w1.000006" (write 60)`
	if !r.Failed() || !strings.Contains(r.Violation(), want) {
		t.Fatalf("token %s: failed=%v (%s), want the atomicity violation %q", token, r.Failed(), r.Violation(), want)
	}
	s.Alg = "twobit-mwmr"
	if r, err = Run(s); err != nil {
		t.Fatal(err)
	}
	if r.Failed() {
		t.Fatalf("correct register fails the mutant's descriptor %s: %s", r.Token, r.Violation())
	}
}
