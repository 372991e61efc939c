package eval

import (
	"errors"
	"fmt"
	"testing"

	"twobitreg/internal/abd"
	"twobitreg/internal/core"
	"twobitreg/internal/explore"
	"twobitreg/internal/phased"
	"twobitreg/internal/proto"
)

func TestScenarioFailureFreeAllAlgorithms(t *testing.T) {
	t.Parallel()
	algs := []proto.Algorithm{
		core.Algorithm(), abd.Algorithm(), phased.Algorithm(phased.BoundedABD()), phased.Algorithm(phased.Attiya()),
	}
	for _, alg := range algs {
		alg := alg
		t.Run(alg.Name(), func(t *testing.T) {
			t.Parallel()
			res, err := RunScenario(alg, ScenarioSpec{
				N: 5, Ops: 40, ReadFraction: 0.6, Seed: 9,
				DelayLo: 0.2, DelayHi: 2.0, ValueSize: 8,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed != 40 {
				t.Fatalf("completed %d/40 ops in a failure-free run", res.Completed)
			}
			if res.AtomicityErr != nil {
				t.Fatalf("non-atomic history: %v", res.AtomicityErr)
			}
			if res.InvariantErr != nil {
				t.Fatalf("invariant violation: %v", res.InvariantErr)
			}
		})
	}
}

func TestScenarioWithCrashes(t *testing.T) {
	t.Parallel()
	for seed := int64(0); seed < 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			res, err := RunScenario(core.Algorithm(), ScenarioSpec{
				N: 5, Ops: 30, ReadFraction: 0.5, Seed: seed,
				Crashes: 2, DelayLo: 0.2, DelayHi: 1.5, ValueSize: 8,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.AtomicityErr != nil {
				t.Fatalf("non-atomic history under crashes: %v", res.AtomicityErr)
			}
			if res.InvariantErr != nil {
				t.Fatalf("invariant violation under crashes: %v", res.InvariantErr)
			}
		})
	}
}

func TestScenarioABDWithCrashes(t *testing.T) {
	t.Parallel()
	for seed := int64(20); seed < 26; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			res, err := RunScenario(abd.Algorithm(), ScenarioSpec{
				N: 5, Ops: 30, ReadFraction: 0.5, Seed: seed,
				Crashes: 2, DelayLo: 0.2, DelayHi: 1.5, ValueSize: 8,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.AtomicityErr != nil {
				t.Fatalf("ABD produced a non-atomic history under crashes: %v", res.AtomicityErr)
			}
		})
	}
}

// TestScenarioMultiWriter drives the MWMR baseline with concurrent writer
// streams: the history must be judged atomic by the multi-writer cluster
// checker, complete fully, and contain writes from several processes.
func TestScenarioMultiWriter(t *testing.T) {
	t.Parallel()
	for _, writers := range []int{2, 3} {
		writers := writers
		t.Run(fmt.Sprintf("writers=%d", writers), func(t *testing.T) {
			t.Parallel()
			res, err := RunScenario(abd.MWMRAlgorithm(), ScenarioSpec{
				N: 5, Ops: 40, ReadFraction: 0.5, Seed: 17,
				DelayLo: 0.2, DelayHi: 2.0, ValueSize: 8, Writers: writers,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed != 40 {
				t.Fatalf("completed %d/40 ops in a failure-free multi-writer run", res.Completed)
			}
			if res.AtomicityErr != nil {
				t.Fatalf("non-atomic multi-writer history: %v", res.AtomicityErr)
			}
			procs := map[int]bool{}
			for _, op := range res.History.Ops {
				if op.Kind == proto.OpWrite {
					procs[op.Proc] = true
				}
			}
			if len(procs) < 2 {
				t.Fatalf("only %d writer processes in a %d-writer scenario", len(procs), writers)
			}
		})
	}
	if _, err := RunScenario(abd.MWMRAlgorithm(), ScenarioSpec{N: 3, Ops: 5, Writers: 4}); err == nil {
		t.Fatal("accepted more writers than processes")
	}
}

func TestScenarioCapsCrashes(t *testing.T) {
	t.Parallel()
	// Requesting more crashes than t is capped, keeping the run live.
	res, err := RunScenario(core.Algorithm(), ScenarioSpec{
		N: 5, Ops: 10, ReadFraction: 0, Seed: 3, Crashes: 99, ValueSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Writes come from the never-crashed writer and must all complete.
	if res.Completed != 10 {
		t.Fatalf("completed %d/10 writes with capped crashes", res.Completed)
	}
}

func TestScenarioRejectsBadSpec(t *testing.T) {
	t.Parallel()
	if _, err := RunScenario(core.Algorithm(), ScenarioSpec{N: 0}); err == nil {
		t.Fatal("accepted N=0")
	}
}

// TestScenarioAdversaryDelayOverride: a scenario must honor a custom delay
// model (here an explorer adversary profile) and still produce an atomic
// history — the Table-1/scenario reuse path for adversary profiles.
func TestScenarioAdversaryDelayOverride(t *testing.T) {
	t.Parallel()
	delay, maxDelay, err := explore.ProfileDelay("slowquorum", 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunScenario(core.Algorithm(), ScenarioSpec{
		N: 5, Ops: 20, ReadFraction: 0.6, Seed: 3,
		Delay: delay, DelayHi: maxDelay, ValueSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 20 {
		t.Fatalf("completed %d/20 ops under the adversary profile", res.Completed)
	}
	if res.AtomicityErr != nil || res.InvariantErr != nil {
		t.Fatalf("adversary profile broke the run: atomicity=%v invariants=%v",
			res.AtomicityErr, res.InvariantErr)
	}
}

// TestScenarioTwoBitMWMR runs the paper-derived multi-writer register
// through the same scenario harness as the ABD baseline: concurrent writer
// streams under randomized delays, judged by the cluster checker AND the
// per-lane proof invariants (RunScenario attaches
// core.CheckMWGlobalInvariants as its post-delivery hook, mirroring the
// SWMR path).
func TestScenarioTwoBitMWMR(t *testing.T) {
	t.Parallel()
	for _, writers := range []int{2, 3} {
		writers := writers
		t.Run(fmt.Sprintf("writers=%d", writers), func(t *testing.T) {
			t.Parallel()
			res, err := RunScenario(core.MWMRAlgorithm(), ScenarioSpec{
				N: 5, Ops: 40, ReadFraction: 0.5, Seed: 17,
				DelayLo: 0.2, DelayHi: 2.0, ValueSize: 8, Writers: writers,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed != 40 {
				t.Fatalf("completed %d/40 ops in a failure-free multi-writer run", res.Completed)
			}
			if res.AtomicityErr != nil {
				t.Fatalf("non-atomic twobit-mwmr history: %v", res.AtomicityErr)
			}
			if res.InvariantErr != nil {
				t.Fatalf("per-lane invariant violated: %v", res.InvariantErr)
			}
			procs := map[int]bool{}
			for _, op := range res.History.Ops {
				if op.Kind == proto.OpWrite {
					procs[op.Proc] = true
				}
			}
			if len(procs) < 2 {
				t.Fatalf("only %d writer processes in a %d-writer scenario", len(procs), writers)
			}
		})
	}
	// The writer-set bypass is closed: an oversized writer count is a typed
	// *proto.WriterSetError from the central validation point.
	_, err := RunScenario(core.MWMRAlgorithm(), ScenarioSpec{N: 3, Ops: 5, Writers: 4})
	var wse *proto.WriterSetError
	if !errors.As(err, &wse) {
		t.Fatalf("oversized writer set error = %v, want *proto.WriterSetError", err)
	}
}
