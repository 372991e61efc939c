package eval

import (
	"fmt"
	"testing"

	"twobitreg/internal/explore"
)

// Seeded end-to-end scenarios over the algorithms this package measures.
// They run through explore.Run, the repository's one seeded-simulation
// harness, which judges every run by the atomicity checkers, the proof
// invariants (two-bit registers), the stall check and a fingerprint.

// scenario runs s and fails the test on a descriptor error or any
// violation.
func scenario(t *testing.T, s explore.Schedule) explore.Result {
	t.Helper()
	if s.Strategy == "" {
		s.Strategy = "uniform"
	}
	res, err := explore.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatalf("%s: %s", res.Token, res.Violation())
	}
	return res
}

func TestScenarioFailureFreeAllAlgorithms(t *testing.T) {
	t.Parallel()
	for _, alg := range Columns() {
		name := alg.Name()
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res := scenario(t, explore.Schedule{Alg: name, Seed: 9, N: 5, Ops: 40, ReadFrac: 0.6})
			if res.Completed != 40 {
				t.Fatalf("completed %d/40 ops in a failure-free run", res.Completed)
			}
		})
	}
}

func TestScenarioWithCrashes(t *testing.T) {
	t.Parallel()
	for seed := int64(0); seed < 10; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			scenario(t, explore.Schedule{Alg: "twobit", Seed: seed, N: 5, Ops: 30, ReadFrac: 0.5, Crashes: 2})
		})
	}
}

func TestScenarioABDWithCrashes(t *testing.T) {
	t.Parallel()
	for seed := int64(20); seed < 26; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			scenario(t, explore.Schedule{Alg: "abd", Seed: seed, N: 5, Ops: 30, ReadFrac: 0.5, Crashes: 2})
		})
	}
}

// concurrentWriters runs alg with concurrent writer streams: the history
// must be judged atomic by the multi-writer cluster checker, complete fully,
// and contain writes from several processes; a writer count above n is
// refused.
func concurrentWriters(t *testing.T, alg string) {
	for _, writers := range []int{2, 3} {
		t.Run(fmt.Sprintf("writers=%d", writers), func(t *testing.T) {
			t.Parallel()
			res := scenario(t, explore.Schedule{Alg: alg, Seed: 17, N: 5, Ops: 40, ReadFrac: 0.5, Writers: writers})
			if res.Completed != 40 {
				t.Fatalf("completed %d/40 ops in a failure-free multi-writer run", res.Completed)
			}
			if res.WriterProcs < 2 {
				t.Fatalf("only %d writer processes in a %d-writer scenario", res.WriterProcs, writers)
			}
		})
	}
	if _, err := explore.Run(explore.Schedule{Alg: alg, Strategy: "uniform", N: 3, Ops: 5, Writers: 4}); err == nil {
		t.Fatal("accepted more writers than processes")
	}
}

// TestScenarioMultiWriter drives the MWMR baseline.
func TestScenarioMultiWriter(t *testing.T) {
	t.Parallel()
	concurrentWriters(t, "abd-mwmr")
}

// TestScenarioTwoBitMWMR drives the paper-derived multi-writer register
// the same way; its per-lane proof invariants are checked after every
// delivery.
func TestScenarioTwoBitMWMR(t *testing.T) {
	t.Parallel()
	concurrentWriters(t, "twobit-mwmr")
}

func TestScenarioCapsCrashes(t *testing.T) {
	t.Parallel()
	// Requesting more crashes than t is capped, keeping the run live.
	res := scenario(t, explore.Schedule{Alg: "twobit", Seed: 3, N: 5, Ops: 10, Crashes: 99})
	if res.Schedule.Crashes != 2 {
		t.Fatalf("ran with %d crashes, want the cap t = 2", res.Schedule.Crashes)
	}
	// Writes come from the never-crashed writer and must all complete.
	if res.Completed != 10 {
		t.Fatalf("completed %d/10 writes with capped crashes", res.Completed)
	}
}

func TestScenarioRejectsBadSpec(t *testing.T) {
	t.Parallel()
	if _, err := explore.Run(explore.Schedule{Alg: "twobit", Strategy: "uniform", N: 0}); err == nil {
		t.Fatal("accepted N=0")
	}
}

// TestScenarioAdversaryDelayOverride: a scenario under an explorer
// adversary profile still completes with an atomic history.
func TestScenarioAdversaryDelayOverride(t *testing.T) {
	t.Parallel()
	res := scenario(t, explore.Schedule{Alg: "twobit", Strategy: "slowquorum", Seed: 3, N: 5, Ops: 20, ReadFrac: 0.6})
	if res.Completed != 20 {
		t.Fatalf("completed %d/20 ops under the adversary profile", res.Completed)
	}
}

// TestScenarioDeterministic: identical seeds must yield byte-identical
// runs — the property every "reproduce this run" workflow in this
// repository rests on.
func TestScenarioDeterministic(t *testing.T) {
	t.Parallel()
	s := explore.Schedule{Alg: "twobit", Seed: 1234, N: 5, Ops: 40, ReadFrac: 0.6, Crashes: 1}
	a, b := scenario(t, s), scenario(t, s)
	if a.Fingerprint != b.Fingerprint || a.Events != b.Events || a.Msgs != b.Msgs || a.Completed != b.Completed {
		t.Fatalf("runs diverged: %+v vs %+v", a, b)
	}
}

// TestScenarioSeedsDiffer: different seeds must actually explore different
// schedules (guards against a pinned RNG).
func TestScenarioSeedsDiffer(t *testing.T) {
	t.Parallel()
	s := explore.Schedule{Alg: "twobit", Seed: 1, N: 5, Ops: 40, ReadFrac: 0.6}
	a := scenario(t, s)
	s.Seed = 2
	if b := scenario(t, s); a.Fingerprint == b.Fingerprint {
		t.Fatal("different seeds produced identical runs — RNG plumbing broken")
	}
}
