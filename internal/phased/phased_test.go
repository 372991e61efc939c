package phased_test

import (
	"fmt"
	"testing"

	"twobitreg/internal/phased"
	"twobitreg/internal/proto"
	"twobitreg/internal/prototest"
	"twobitreg/internal/transport"
)

func val(s string) proto.Value { return proto.Value(s) }

func comparators() map[string]proto.Algorithm {
	return map[string]proto.Algorithm{
		"bounded-abd": phased.Algorithm(phased.BoundedABD()),
		"attiya":      phased.Algorithm(phased.Attiya()),
	}
}

func TestComparatorWriteRead(t *testing.T) {
	t.Parallel()
	for name, alg := range comparators() {
		name, alg := name, alg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			h := prototest.NewHarness(t, alg, 3, 0)
			h.Write(0, 1, val("a"))
			h.DeliverAll()
			h.MustComplete(1)
			h.Read(2, 2)
			h.DeliverAll()
			if c := h.MustComplete(2); !c.Value.Equal(val("a")) {
				t.Fatalf("read = %q, want a", c.Value)
			}
		})
	}
}

func TestComparatorSupersedingWrites(t *testing.T) {
	t.Parallel()
	for name, alg := range comparators() {
		name, alg := name, alg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			h := prototest.NewHarness(t, alg, 5, 0)
			for k := 1; k <= 4; k++ {
				h.Write(0, proto.OpID(k), val(fmt.Sprintf("v%d", k)))
				h.DeliverAll()
				h.MustComplete(proto.OpID(k))
			}
			h.Read(3, 9)
			h.DeliverAll()
			if c := h.MustComplete(9); !c.Value.Equal(val("v4")) {
				t.Fatalf("read = %q, want v4", c.Value)
			}
		})
	}
}

// TestComparatorLatencies pins the phase schedules to the paper's Table 1
// rows 5-6: bounded ABD 12Δ/12Δ, Attiya 14Δ/18Δ.
func TestComparatorLatencies(t *testing.T) {
	t.Parallel()
	cases := []struct {
		alg   proto.Algorithm
		wantW float64
		wantR float64
	}{
		{phased.Algorithm(phased.BoundedABD()), 12, 12},
		{phased.Algorithm(phased.Attiya()), 14, 18},
	}
	for _, c := range cases {
		c := c
		t.Run(c.alg.Name(), func(t *testing.T) {
			t.Parallel()
			r := prototest.NewSimRig(t, c.alg, 5, 0, 1, transport.FixedDelay(1))
			r.Net.StartWriteAt(0, 0, 1, val("x"))
			r.Net.Run()
			if d := r.MustDone(1); d.At != c.wantW {
				t.Fatalf("%s write latency = %vΔ, want %vΔ", c.alg.Name(), d.At, c.wantW)
			}
			start := r.Sched.Now() + 10
			r.Net.StartReadAt(start, 1, 2)
			r.Net.Run()
			if d := r.MustDone(2); d.At-start != c.wantR {
				t.Fatalf("%s read latency = %vΔ, want %vΔ", c.alg.Name(), d.At-start, c.wantR)
			}
		})
	}
}

// TestComparatorMessageComplexity pins the message-count shapes of Table 1
// rows 1-2: bounded ABD is quadratic in n, Attiya linear.
func TestComparatorMessageComplexity(t *testing.T) {
	t.Parallel()
	count := func(alg proto.Algorithm, n int, read bool) int64 {
		r := prototest.NewSimRig(t, alg, n, 0, 1, transport.FixedDelay(1))
		r.Net.StartWriteAt(0, 0, 1, val("x"))
		r.Net.Run()
		if !read {
			return r.Col.Snapshot().TotalMsgs
		}
		r.Col.Reset()
		r.Net.StartReadAt(r.Sched.Now()+5, 1, 2)
		r.Net.Run()
		return r.Col.Snapshot().TotalMsgs
	}

	// bounded ABD: 6 phases of (n-1) reqs + (n-1)² echoes.
	for _, n := range []int{3, 5, 7} {
		want := int64(6 * ((n - 1) + (n-1)*(n-1)))
		if got := count(phased.Algorithm(phased.BoundedABD()), n, false); got != want {
			t.Errorf("bounded-abd write msgs at n=%d: got %d, want %d", n, got, want)
		}
	}
	// Attiya: 7 (write) / 9 (read) phases of 2(n-1) messages.
	for _, n := range []int{3, 5, 7} {
		if got, want := count(phased.Algorithm(phased.Attiya()), n, false), int64(7*2*(n-1)); got != want {
			t.Errorf("attiya write msgs at n=%d: got %d, want %d", n, got, want)
		}
		if got, want := count(phased.Algorithm(phased.Attiya()), n, true), int64(9*2*(n-1)); got != want {
			t.Errorf("attiya read msgs at n=%d: got %d, want %d", n, got, want)
		}
	}
}

func TestComparatorControlBits(t *testing.T) {
	t.Parallel()
	// n⁵ for bounded ABD, n³ for Attiya, measured off the wire.
	n := 4
	r := prototest.NewSimRig(t, phased.Algorithm(phased.BoundedABD()), n, 0, 1, transport.FixedDelay(1))
	r.Net.StartWriteAt(0, 0, 1, val("x"))
	r.Net.Run()
	if got := r.Col.Snapshot().MaxCtrlBits; got != 1024 { // 4^5
		t.Errorf("bounded-abd control bits = %d, want 1024", got)
	}
	r2 := prototest.NewSimRig(t, phased.Algorithm(phased.Attiya()), n, 0, 1, transport.FixedDelay(1))
	r2.Net.StartWriteAt(0, 0, 1, val("x"))
	r2.Net.Run()
	if got := r2.Col.Snapshot().MaxCtrlBits; got != 64 { // 4^3
		t.Errorf("attiya control bits = %d, want 64", got)
	}
}

func TestComparatorCrashTolerance(t *testing.T) {
	t.Parallel()
	for name, alg := range comparators() {
		name, alg := name, alg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			r := prototest.NewSimRig(t, alg, 5, 0, 1, transport.FixedDelay(1))
			r.Net.Crash(3)
			r.Net.Crash(4)
			r.Net.StartWriteAt(0, 0, 1, val("v"))
			r.Net.StartReadAt(50, 1, 2)
			r.Net.Run()
			r.MustDone(1)
			if d := r.MustDone(2); !d.C.Value.Equal(val("v")) {
				t.Fatalf("read = %q, want v", d.C.Value)
			}
		})
	}
}

func TestComparatorMemoryBits(t *testing.T) {
	t.Parallel()
	p := phased.New(phased.BoundedABD(), 0, 4, 0)
	if got := p.LocalMemoryBits(); got != 4096 { // 4^6
		t.Errorf("bounded-abd memory bits = %d, want 4096", got)
	}
	q := phased.New(phased.Attiya(), 0, 4, 0)
	if got := q.LocalMemoryBits(); got != 1024 { // 4^5
		t.Errorf("attiya memory bits = %d, want 1024", got)
	}
}

// TestProfilesMatchPublishedCosts pins the two exported profiles to the
// figures the paper's Table 1 cites: registry name, phase counts (2Δ per
// phase), message pattern, and the declared control/memory sizes.
func TestProfilesMatchPublishedCosts(t *testing.T) {
	t.Parallel()
	type size struct{ n, ctrl, mem int }
	for _, tc := range []struct {
		cfg         phased.Config
		name        string
		write, read int
		echoAll     bool
		ctrlN, memN string
		sizes       []size
	}{
		{phased.BoundedABD(), "bounded-abd", 6, 6, true, "n⁵", "n⁶",
			[]size{{2, 32, 64}, {3, 243, 729}, {10, 100000, 1000000}}},
		{phased.Attiya(), "attiya", 7, 9, false, "n³", "n⁵",
			[]size{{2, 8, 32}, {3, 27, 243}, {10, 1000, 100000}}},
	} {
		if got := phased.Algorithm(tc.cfg).Name(); got != tc.name {
			t.Errorf("Name() = %q, want %q", got, tc.name)
		}
		if tc.cfg.WritePhases != tc.write || tc.cfg.ReadPhases != tc.read {
			t.Errorf("%s: phases = %d/%d, want %d/%d (%dΔ/%dΔ)", tc.name,
				tc.cfg.WritePhases, tc.cfg.ReadPhases, tc.write, tc.read, 2*tc.write, 2*tc.read)
		}
		if tc.cfg.EchoAll != tc.echoAll {
			t.Errorf("%s: EchoAll = %v: bounded ABD echoes all-to-all (O(n²) messages), Attiya acks directly (O(n))",
				tc.name, tc.cfg.EchoAll)
		}
		for _, sz := range tc.sizes {
			if got := tc.cfg.CtrlBits(sz.n); got != sz.ctrl {
				t.Errorf("%s: CtrlBits(%d) = %d, want %s = %d", tc.name, sz.n, got, tc.ctrlN, sz.ctrl)
			}
			if got := tc.cfg.MemoryBits(sz.n); got != sz.mem {
				t.Errorf("%s: MemoryBits(%d) = %d, want %s = %d", tc.name, sz.n, got, tc.memN, sz.mem)
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config did not panic")
		}
	}()
	phased.Algorithm(phased.Config{Name: "bad"})
}

func TestComparatorNonWriterWritePanics(t *testing.T) {
	t.Parallel()
	p := phased.New(phased.Attiya(), 1, 3, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.StartWrite(1, val("x"))
}
