package explore

import (
	"math/rand"
	"testing"
)

// TestCorrectAlgorithmsSurviveAllStrategies is the explorer's soundness
// half: every correct algorithm must come out clean under every adversary
// strategy, including runs with a crashing minority.
func TestCorrectAlgorithmsSurviveAllStrategies(t *testing.T) {
	t.Parallel()
	for _, alg := range AlgorithmNames() {
		for _, strat := range StrategyNames() {
			alg, strat := alg, strat
			t.Run(alg+"/"+strat, func(t *testing.T) {
				t.Parallel()
				for seed := int64(1); seed <= 3; seed++ {
					for _, crashes := range []int{0, 1} {
						s := Schedule{
							Alg: alg, Strategy: strat, Seed: seed,
							N: 5, Ops: 24, ReadFrac: 0.6, Crashes: crashes,
						}
						r, err := Run(s)
						if err != nil {
							t.Fatal(err)
						}
						if r.Failed() {
							t.Fatalf("false positive on %s: %s", r.Token, r.Violation())
						}
						if crashes == 0 && r.Completed != s.Ops {
							t.Fatalf("%s: only %d/%d ops completed in a failure-free run", r.Token, r.Completed, s.Ops)
						}
					}
				}
			})
		}
	}
}

// TestRunDeterministic: a descriptor must reproduce byte-identically — the
// guarantee every replay token rests on.
func TestRunDeterministic(t *testing.T) {
	t.Parallel()
	for _, strat := range StrategyNames() {
		s := Schedule{
			Alg: "twobit", Strategy: strat, Seed: 42,
			N: 5, Ops: 30, ReadFrac: 0.5, Crashes: 2,
		}
		a, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if a.Fingerprint != b.Fingerprint || a.Events != b.Events || a.Completed != b.Completed {
			t.Fatalf("%s: replay diverged: %+v vs %+v", s.Token(), a, b)
		}
	}
}

// TestPCTTieSeedChangesInterleaving: the random-priority adversary must
// actually explore different interleavings as the seed moves, otherwise it
// adds nothing over FIFO tie-breaking.
func TestPCTTieSeedChangesInterleaving(t *testing.T) {
	t.Parallel()
	fps := map[string]bool{}
	for seed := int64(0); seed < 6; seed++ {
		r, err := Run(Schedule{Alg: "twobit", Strategy: "pct", Seed: seed, N: 5, Ops: 20, ReadFrac: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		fps[r.Fingerprint] = true
	}
	if len(fps) < 4 {
		t.Fatalf("6 pct seeds yielded only %d distinct runs", len(fps))
	}
}

func TestTokenRoundTrip(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	algs := append(AlgorithmNames(), MutantNames()...)
	strats := StrategyNames()
	for i := 0; i < 200; i++ {
		s := Schedule{
			Alg:      algs[rng.Intn(len(algs))],
			Strategy: strats[rng.Intn(len(strats))],
			Seed:     rng.Int63() - rng.Int63(),
			N:        1 + rng.Intn(40),
			Ops:      rng.Intn(1000),
			ReadFrac: rng.Float64(),
			Crashes:  rng.Intn(5),
		}
		// Writers is 0 (canonical single-writer) or >= 2; 1 normalizes to 0
		// inside Run and never appears in a token.
		if w := 2 + rng.Intn(3); w <= s.N && rng.Intn(2) == 0 {
			s.Writers = w
		}
		got, err := ParseToken(s.Token())
		if err != nil {
			t.Fatalf("token %q failed to parse: %v", s.Token(), err)
		}
		if got != s {
			t.Fatalf("round trip changed the schedule: %+v -> %+v", s, got)
		}
	}
	for _, bad := range []string{"", "xb1", "xb0:twobit:pct:1:5:30:0.5:0", "xb1:a:b:x:5:30:0.5:0",
		"xb1:a:b:1:5:30:0.5:0:w", "xb1:a:b:1:5:30:0.5:0:1", "xb1:a:b:1:5:30:0.5:0:2:extra"} {
		if _, err := ParseToken(bad); err == nil {
			t.Fatalf("ParseToken(%q) accepted garbage", bad)
		}
	}
	// Pre-Writers 8-field tokens still parse, as single-writer schedules.
	old, err := ParseToken("xb1:twobit:slowquorum:7:5:30:0.6:1")
	if err != nil {
		t.Fatalf("legacy 8-field token rejected: %v", err)
	}
	if old.Writers != 0 {
		t.Fatalf("legacy token parsed with %d writers, want 0", old.Writers)
	}
}

func TestSweepCleanOnCorrectAlgorithm(t *testing.T) {
	t.Parallel()
	res, err := Sweep(SweepSpec{
		Algs: []string{"twobit"}, N: 5, Ops: 20, ReadFrac: 0.6,
		Crashes: 1, Budget: 14, Seed0: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 14 || res.Clean != 14 || len(res.Failures) != 0 {
		t.Fatalf("expected 14 clean runs, got %+v", res)
	}
}

// TestShrinkReducesFailingSchedule: shrinking a mutant failure must keep it
// failing while reducing the descriptor.
func TestShrinkReducesFailingSchedule(t *testing.T) {
	t.Parallel()
	sw, err := Sweep(SweepSpec{
		Algs: []string{"mut-stale-read"}, N: 5, Ops: 40, ReadFrac: 0.6,
		Budget: 40, Seed0: 1, StopEarly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Failures) == 0 {
		t.Fatal("sweep failed to catch mut-stale-read")
	}
	orig := sw.Failures[0].Schedule
	small, res, err := Shrink(orig, 60)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed() {
		t.Fatalf("shrink returned a non-failing schedule %s", small.Token())
	}
	if small.Ops > orig.Ops || small.N > orig.N || small.Crashes > orig.Crashes {
		t.Fatalf("shrink grew the schedule: %+v -> %+v", orig, small)
	}
	if small.Ops == orig.Ops && small.N == orig.N && small.Crashes == orig.Crashes {
		t.Fatalf("shrink made no progress on %s", orig.Token())
	}
}
