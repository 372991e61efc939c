package explore

import (
	"testing"
)

// caughtByToken replays a committed witness for a seeded durability bug and
// requires it to keep failing. If a legitimate change to the explorer's
// seeding breaks a token, re-find one with TestMutantsAreCaughtWithinBudget
// and update it.
func caughtByToken(t *testing.T, token, mutant string) {
	t.Helper()
	s, err := ParseToken(token)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed() {
		t.Fatalf("token %s no longer catches %s", token, mutant)
	}
	t.Logf("caught: %s", res.Violation())
}

// TestCrashRestartCorrectAlgsClean is the soundness half of the restart
// adversary: every correct algorithm — recoverable or not (the latter
// degrade to crash-stop) — must survive a crashrestart sweep with writer
// victims, revivals, and post-revival catch-up all in play. A failure here
// is a bug in the recovery path or a false positive in a checker, never in
// the algorithm.
func TestCrashRestartCorrectAlgsClean(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("sweep takes a few seconds")
	}
	sw, err := Sweep(SweepSpec{
		Strategies: []string{"crashrestart"},
		N:          5, Ops: 30, ReadFrac: 0.6, Crashes: 2,
		Budget: 120, Seed0: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range sw.Failures {
		t.Errorf("correct algorithm failed under crashrestart: %s: %s", f.Token, f.Violation())
	}
	t.Logf("%d runs clean", sw.Clean)
}

// TestCrashRestartMWMRClean is the same soundness bar under true
// multi-writer workloads: concurrent writer streams with writer victims
// crashing mid-append and reviving from their logs.
func TestCrashRestartMWMRClean(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("sweep takes a few seconds")
	}
	sw, err := Sweep(SweepSpec{
		Strategies: []string{"crashrestart"},
		N:          5, Ops: 30, ReadFrac: 0.6, Crashes: 2, Writers: 3,
		Budget: 100, Seed0: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range sw.Failures {
		t.Errorf("correct algorithm failed under crashrestart (3 writers): %s: %s", f.Token, f.Violation())
	}
	t.Logf("%d runs clean", sw.Clean)
}

// TestCrashRestartDeterminism: a crash-restart run — revival scheduling,
// log replay, bilateral resets, re-kicked op streams and all — must
// reproduce byte-identically from its descriptor, like every other run.
func TestCrashRestartDeterminism(t *testing.T) {
	t.Parallel()
	for _, alg := range []string{"twobit", "twobit-mwmr", "regmap-mwmr", "abd"} {
		s := Schedule{Alg: alg, Strategy: "crashrestart", Seed: 7, N: 5, Ops: 25, ReadFrac: 0.5, Crashes: 2}
		if MWMRCapable(alg) {
			s.Writers = 3
		}
		a, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if a.Fingerprint != b.Fingerprint || a.Events != b.Events || a.EndTime != b.EndTime {
			t.Fatalf("%s: reruns diverged: %s/%d/%v vs %s/%d/%v",
				alg, a.Fingerprint, a.Events, a.EndTime, b.Fingerprint, b.Events, b.EndTime)
		}
		if a.Failed() {
			t.Errorf("%s failed under crashrestart seed 7: %s", alg, a.Violation())
		}
	}
}

// TestWALSkipSyncCaughtToken pins a replayable witness for the seeded
// durability bug: the committed token must keep failing (the revived
// process's lanes are empty while its peers hold its stream — conservation
// or Lemma 2 at the first post-revival probe, or a stale read soon after).
func TestWALSkipSyncCaughtToken(t *testing.T) {
	t.Parallel()
	caughtByToken(t, "xb1:mut-wal-skipsync:crashrestart:2:5:30:0.6:1", "mut-wal-skipsync")
}

// TestWALEarlyReleaseCaught is the commit point's detection bar: the keyed
// store that releases a step's frames and completions before the burst's
// sync (mut-wal-earlyrelease) must be caught by crashrestart within the
// mutation budget — a victim crashing between a step and its flush tick
// revives without a record a peer already processed, which the first
// post-revival probe reports as a conservation violation — the committed
// token must keep reproducing the catch, and the correct store must pass
// the very same sweep.
func TestWALEarlyReleaseCaught(t *testing.T) {
	t.Parallel()
	sweep := func(alg string) SweepResult {
		sw, err := Sweep(SweepSpec{
			Algs: []string{alg}, Strategies: []string{"crashrestart"},
			N: 5, Ops: 30, ReadFrac: 0.6, Crashes: 1, Writers: 3,
			Budget: mutationBudget, Seed0: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sw
	}
	if sw := sweep("mut-wal-earlyrelease"); len(sw.Failures) == 0 {
		t.Fatalf("mut-wal-earlyrelease survived %d crashrestart schedules", sw.Runs)
	}
	caughtByToken(t, "xb1:mut-wal-earlyrelease:crashrestart:11:5:30:0.6:1:3", "mut-wal-earlyrelease")
	for _, f := range sweep("regmap-mwmr").Failures {
		t.Errorf("correct keyed store failed the same sweep: %s: %s", f.Token, f.Violation())
	}
}
