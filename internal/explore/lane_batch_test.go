package explore

import (
	"strings"
	"testing"
)

// TestCrashwriteStrategyRegistered pins the new adversary and the batching
// registry metadata: crashwrite is a selectable strategy, the unbatched
// register and the torn-batch mutant are registered and MWMR-capable — and
// the unbatched register, a cost baseline with committed failing witnesses,
// is in no list of correct algorithms, so no default sweep judges it.
func TestCrashwriteStrategyRegistered(t *testing.T) {
	t.Parallel()
	if _, ok := strategyByName("crashwrite"); !ok {
		t.Fatalf("crashwrite missing from strategies %v", StrategyNames())
	}
	if doc, ok := StrategyDoc("crashwrite"); !ok || !strings.Contains(doc, "freshness") {
		t.Fatalf("crashwrite doc = %q, want the freshness-boundary description", doc)
	}
	for _, name := range []string{"twobit-mwmr-unbatched", "mut-lane-batch"} {
		if _, ok := ByName(name); !ok {
			t.Fatalf("%s not registered", name)
		}
		if !MWMRCapable(name) {
			t.Fatalf("%s not marked MWMR-capable", name)
		}
	}
	for _, name := range append(AlgorithmNames(), MWMRAlgorithmNames()...) {
		if name == "twobit-mwmr-unbatched" {
			t.Fatalf("twobit-mwmr-unbatched is listed as a correct algorithm: %v / %v", AlgorithmNames(), MWMRAlgorithmNames())
		}
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

// TestUnbatchedPaddingWitnesses holds the two schedules that show the
// unbatched register is not atomic, and that the batched one is on the very
// same descriptors. Unbatched, a padded write's indices are published one
// round trip at a time, each carrying the new value; in both runs a reader
// pins an intermediate index, a later reader returns a concurrent write
// whose (index, writer) timestamp lies between that index and the write's
// final one, and a third reader returns the first value again — the checker
// finds no write order. A batched run is adopted in one step from one
// frame, so no intermediate index is ever readable. These tokens are the
// variant's committed witnesses (see costBaselines): it stays registered
// for its message counts and is judged the way a mutant is.
func TestUnbatchedPaddingWitnesses(t *testing.T) {
	t.Parallel()
	for _, tok := range []string{
		"xb1:twobit-mwmr-unbatched:race:7:5:40:0.4:1:4",
		"xb1:twobit-mwmr-unbatched:burst:12:5:40:0.4:1:4",
	} {
		s, err := ParseToken(tok)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if r.Atomicity == "" || r.Invariant != "" {
			t.Fatalf("%s: want an atomicity violation with every lane invariant intact, got %q", tok, r.Violation())
		}
		t.Logf("%s: %s", tok, r.Atomicity)
		s.Alg = "twobit-mwmr"
		if r, err = Run(s); err != nil {
			t.Fatal(err)
		}
		if r.Failed() {
			t.Fatalf("batched register fails the same descriptor %s: %s", r.Token, r.Violation())
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

// TestUnbatchedMatchesPreBatchingMessageCount: the unbatched register must
// send strictly more messages than the batched one on padding-heavy
// schedules — and the batched one must still win every read check (the
// unbatched one is counted, not judged: see TestUnbatchedPaddingWitnesses).
// A quick end-to-end form of the bounded-lanes claim; the precise bound
// lives in core's skew test and BenchmarkMWMRWriteMessages.
func TestUnbatchedMatchesPreBatchingMessageCount(t *testing.T) {
	t.Parallel()
	var batched, unbatched int64
	for seed := int64(1); seed <= 6; seed++ {
		for _, alg := range []string{"twobit-mwmr", "twobit-mwmr-unbatched"} {
			r, err := Run(Schedule{
				Alg: alg, Strategy: "race", Seed: seed,
				N: 5, Ops: 40, ReadFrac: 0.3, Writers: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			if alg == "twobit-mwmr" {
				if r.Failed() {
					t.Fatalf("violation on %s: %s", r.Token, r.Violation())
				}
				batched += r.Msgs
			} else {
				unbatched += r.Msgs
			}
		}
	}
	if batched >= unbatched {
		t.Fatalf("batched register sent %d messages vs %d unbatched — batching saved nothing", batched, unbatched)
	}
}
