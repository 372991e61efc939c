package explore

import (
	"strings"
	"testing"
)

// TestClientsTokenRoundTrip pins the 12-field token form: the client count
// serializes after the writer, pct and skew columns (riding along as their
// defaults where unused), parses back, and is rejected in the shapes that
// would silently mean something else. Shorter tokens are untouched.
func TestClientsTokenRoundTrip(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		s   Schedule
		tok string
	}{
		{Schedule{Alg: "regmap-mwmr", Strategy: "burst", Seed: 7, N: 5, Ops: 40, ReadFrac: 0.5, Crashes: 1, Writers: 2, Clients: 3},
			"xb1:regmap-mwmr:burst:7:5:40:0.5:1:2:0:0:3"},
		{Schedule{Alg: "twobit-mwmr", Strategy: "pct", Seed: 7, N: 7, Ops: 40, ReadFrac: 0.4, Crashes: 2, Writers: 3, PCT: 2, Skew: 10, Clients: 4},
			"xb1:twobit-mwmr:pct:7:7:40:0.4:2:3:2:10:4"},
		{Schedule{Alg: "twobit", Strategy: "race", Seed: 3, N: 5, Ops: 30, ReadFrac: 0.6, Crashes: 1, Clients: 2},
			"xb1:twobit:race:3:5:30:0.6:1:1:0:0:2"},
	} {
		if got := c.s.Token(); got != c.tok {
			t.Fatalf("token = %q, want %q", got, c.tok)
		}
		parsed, err := ParseToken(c.tok)
		if err != nil {
			t.Fatalf("round trip of %q: %v", c.tok, err)
		}
		if parsed.Clients != c.s.Clients || parsed.Token() != c.tok {
			t.Fatalf("token not canonical: %q -> %+v -> %q", c.tok, parsed, parsed.Token())
		}
	}
	for _, bad := range []string{
		"xb1:regmap-mwmr:burst:7:5:40:0.5:1:2:0:0:0",   // all-clients schedules have no 12th field
		"xb1:regmap-mwmr:burst:7:5:40:0.5:1:2:0:1:3",   // the balanced draw is skew 0
		"xb1:regmap-mwmr:burst:7:5:40:0.5:1:2:0:0:x",   // unparsable count
		"xb1:regmap-mwmr:burst:7:5:40:0.5:1:2:0:0:3:1", // 13 fields
	} {
		if _, err := ParseToken(bad); err == nil {
			t.Fatalf("ParseToken accepted %q", bad)
		}
	}
	// Writers are pids 0..writers-1 and clients 0..clients-1.
	for _, s := range []Schedule{
		{Alg: "twobit-mwmr", Strategy: "burst", Seed: 1, N: 5, Ops: 5, ReadFrac: 0.5, Writers: 3, Clients: 2},
		{Alg: "twobit-mwmr", Strategy: "burst", Seed: 1, N: 5, Ops: 5, ReadFrac: 0.5, Writers: 2, Clients: 6},
	} {
		if _, err := Run(s); err == nil || !strings.Contains(err.Error(), "clients") {
			t.Fatalf("Run(%+v) = %v, want a client-count validation error", s, err)
		}
	}
}

// TestClientsLeaveProcessesIdle: with Clients below N only pids below it
// invoke anything, every process invokes something without it, and naming
// all N processes is the all-clients schedule itself, token and fingerprint.
func TestClientsLeaveProcessesIdle(t *testing.T) {
	t.Parallel()
	base := Schedule{Alg: "twobit-mwmr", Strategy: "uniform", Seed: 5, N: 5, Ops: 40, ReadFrac: 0.5, Writers: 2}
	all, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	full := base
	full.Clients = base.N
	same, err := Run(full)
	if err != nil {
		t.Fatal(err)
	}
	if same.Token != all.Token || same.Fingerprint != all.Fingerprint {
		t.Fatalf("clients = n is not the all-clients run: %s/%s vs %s/%s", same.Token, same.Fingerprint, all.Token, all.Fingerprint)
	}
	idle := base
	idle.Clients = 2
	some, err := Run(idle)
	if err != nil {
		t.Fatal(err)
	}
	if some.Failed() || all.Failed() {
		t.Fatalf("correct register failed: %q / %q", some.Violation(), all.Violation())
	}
	if some.Completed != base.Ops || all.Completed != base.Ops {
		t.Fatalf("completed %d and %d of %d operations", some.Completed, all.Completed, base.Ops)
	}
	// Three of five processes never send a READ, so the relays among them
	// owe each other every index instead of sending it.
	if some.Msgs >= all.Msgs {
		t.Fatalf("idle processes did not thin the flood: %d msgs with 2 clients, %d with 5", some.Msgs, all.Msgs)
	}
}

// TestIdleProcessSweepClean is the soundness bar for lazy links: the lane
// engine's registers under every strategy — crash-restart and crash-at-append
// included — with the upper processes never invoking an operation, so that
// relay-to-relay links stay lazy for the whole run. No stalled operation, no
// invariant (the owed bound among them) and no atomicity violation.
func TestIdleProcessSweepClean(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("sweep takes a few seconds")
	}
	for _, c := range []struct{ n, writers, clients int }{{5, 2, 2}, {5, 2, 3}, {7, 3, 3}, {7, 2, 4}} {
		sw, err := Sweep(SweepSpec{
			Algs: []string{"twobit-mwmr", "regmap-mwmr"},
			N:    c.n, Ops: 40, ReadFrac: 0.4, Crashes: 2, Writers: c.writers, Skew: 10, Clients: c.clients,
			Budget: 60, Seed0: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range sw.Failures {
			t.Errorf("n=%d writers=%d clients=%d: %s: %s", c.n, c.writers, c.clients, f.Token, f.Violation())
		}
	}
}

// TestLaneColdReadCaughtToken pins a replayable witness for the link that
// never turns eager (mut-lane-coldread: a READ does not mark its sender
// serving): the reader stalls in its line-9 wait on echoes the idle relays
// go on owing it, and the correct register passes the same descriptor.
func TestLaneColdReadCaughtToken(t *testing.T) {
	t.Parallel()
	const token = "xb1:mut-lane-coldread:crashwrite:1:5:30:0.6:1:3:0:0:3"
	caughtByToken(t, token, "mut-lane-coldread")
	s, err := ParseToken(token)
	if err != nil {
		t.Fatal(err)
	}
	if r, err := Run(s); err != nil || r.Stalled == 0 {
		t.Fatalf("want a stalled operation, got %q (%v)", r.Violation(), err)
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

// TestShrinkKeepsClients: shrinking a failure that needs idle processes must
// not lose it by making everyone a client — candidates keep the client count
// (or lower it), and an n that no longer fits the clients is skipped.
func TestShrinkKeepsClients(t *testing.T) {
	t.Parallel()
	s, err := ParseToken("xb1:mut-lane-coldread:crashwrite:1:5:30:0.6:1:3:0:0:3")
	if err != nil {
		t.Fatal(err)
	}
	small, res, err := Shrink(s, 40)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed() {
		t.Fatalf("shrunk schedule %s no longer fails", small.Token())
	}
	if small.Clients == 0 || small.Clients > s.Clients || small.Clients >= small.N {
		t.Fatalf("shrink went from %s to %s: the idle processes are gone", s.Token(), small.Token())
	}
	if small.Ops >= s.Ops {
		t.Fatalf("shrink made no progress: %s -> %s", s.Token(), small.Token())
	}
}
