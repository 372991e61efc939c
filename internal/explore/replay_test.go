package explore

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// replayToken replays one explored schedule from its one-line token:
//
//	go test ./internal/explore -run TestReplay -replay=xb1:twobit:pct:1:5:30:0.6:1
//
// The test fails (with the full violation) iff the replayed run fails, so a
// token harvested from a sweep failure reproduces that failure exactly.
var replayToken = flag.String("replay", "", "replay token to execute (see package doc)")

func TestReplay(t *testing.T) {
	tok := *replayToken
	if tok == "" {
		// Self-check mode: pipeline a known schedule through
		// token -> parse -> run twice and demand identical results.
		tok = Schedule{Alg: "twobit", Strategy: "burst", Seed: 9, N: 5, Ops: 25, ReadFrac: 0.5, Crashes: 1}.Token()
	}
	s, err := ParseToken(tok)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint != b.Fingerprint || a.Events != b.Events {
		t.Fatalf("replay is not byte-identical: fingerprint %s/%d vs %s/%d",
			a.Fingerprint, a.Events, b.Fingerprint, b.Events)
	}
	t.Logf("replayed %s: %d/%d ops completed, %d events, %d msgs, fingerprint %s",
		a.Token, a.Completed, s.Ops, a.Events, a.Msgs, a.Fingerprint)
	if a.Failed() {
		t.Fatalf("replayed failure on %s: %s", a.Token, a.Violation())
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/replay_matrix.golden from this build")

// TestReplayMatrixGolden replays a fixed matrix of schedules — every
// registered algorithm and mutant, every strategy, seeds 1-3, one writer
// and (where the algorithm is multi-writer capable) three — and compares
// each run's token, fingerprint, extent and verdict line by line with
// testdata/replay_matrix.golden. A refactor that claims to change no
// behaviour must leave every line as it is;
//
//	go test ./internal/explore -run TestReplayMatrixGolden -update
//
// rewrites the file when a change is meant to alter runs.
func TestReplayMatrixGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, alg := range append(AlgorithmNames(), MutantNames()...) {
		writers := []int{1}
		if MWMRCapable(alg) {
			writers = append(writers, 3)
		}
		for _, strat := range StrategyNames() {
			for seed := int64(1); seed <= 3; seed++ {
				for _, w := range writers {
					s := Schedule{Alg: alg, Strategy: strat, Seed: seed, N: 5, Ops: 30,
						ReadFrac: 0.6, Crashes: 1, Writers: w}
					r, err := Run(s)
					if err != nil {
						t.Fatalf("%s: %v", s.Token(), err)
					}
					fmt.Fprintf(&buf, "%s fp=%s events=%d msgs=%d completed=%d failed=%t violation=%q\n",
						r.Token, r.Fingerprint, r.Events, r.Msgs, r.Completed, r.Failed(), r.Violation())
				}
			}
		}
	}
	path := filepath.Join("testdata", "replay_matrix.golden")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	got := bytes.Split(buf.Bytes(), []byte("\n"))
	wantLines := bytes.Split(want, []byte("\n"))
	if len(got) != len(wantLines) {
		t.Errorf("matrix has %d lines, %s has %d", len(got), path, len(wantLines))
	}
	diffs := 0
	for i := 0; i < len(got) && i < len(wantLines); i++ {
		if !bytes.Equal(got[i], wantLines[i]) {
			if diffs++; diffs <= 10 {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, got[i], wantLines[i])
			}
		}
	}
	if diffs > 10 {
		t.Errorf("... and %d more differing lines", diffs-10)
	}
}
