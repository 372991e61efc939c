package check

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"twobitreg/internal/proto"
)

// genMWMRHistory builds a random small multi-writer history satisfying
// CheckMWMR's precondition (pairwise distinct written values, tagged per
// writer): 2-3 writer processes each issuing sequential writes whose
// intervals overlap across processes, plus readers returning values drawn
// from {initial, any written value} — some plausible, some deliberately
// stale or from the future, some pending.
func genMWMRHistory(rng *rand.Rand) History {
	nWriters := 2 + rng.Intn(2)
	nReaders := 1 + rng.Intn(3)
	h := History{} // initial value v0 = nil

	var id proto.OpID
	type wrec struct {
		val      proto.Value
		inv, res float64
	}
	var writes []wrec
	horizon := 0.0
	for p := 0; p < nWriters; p++ {
		tm := rng.Float64() * 2
		for k, kn := 0, 1+rng.Intn(2); k < kn; k++ {
			id++
			inv := tm + rng.Float64()*2
			res := inv + 0.1 + rng.Float64()*4
			op := Op{
				ID: id, Proc: p, Kind: proto.OpWrite,
				Value: []byte(fmt.Sprintf("p%d.%d", p, k)),
				Inv:   inv, Res: res, Completed: true,
			}
			if rng.Intn(8) == 0 { // the writer crashed mid-write
				op.Completed = false
				op.Res = 0
			}
			h.Ops = append(h.Ops, op)
			writes = append(writes, wrec{op.Value, inv, res})
			if res > horizon {
				horizon = res
			}
			if !op.Completed {
				break // a crashed writer issues nothing further
			}
			tm = res
		}
	}

	for r := 0; r < nReaders; r++ {
		proc := nWriters + r
		tm := rng.Float64() * 2
		for o := 1 + rng.Intn(3); o > 0; o-- {
			id++
			inv := tm + rng.Float64()*horizon/2
			res := inv + 0.1 + rng.Float64()*3
			// Plausible value: some write invoked before this read finished;
			// wrong value: anything, including the initial value.
			var v proto.Value
			if rng.Float64() < 0.55 {
				var cands []proto.Value
				for _, w := range writes {
					if w.inv < res {
						cands = append(cands, w.val)
					}
				}
				if len(cands) > 0 {
					v = cands[rng.Intn(len(cands))]
				}
			} else if k := rng.Intn(len(writes) + 1); k > 0 {
				v = writes[k-1].val
			}
			op := Op{
				ID: id, Proc: proc, Kind: proto.OpRead,
				Value: v, Inv: inv, Res: res, Completed: true,
			}
			if rng.Intn(8) == 0 { // the reader crashed mid-read
				op.Completed = false
				op.Res = 0
			}
			h.Ops = append(h.Ops, op)
			tm = res
		}
	}
	return h
}

// TestDiffMWMR differentially validates the Gibbons–Korach cluster checker
// against the exhaustive Wing–Gong search on thousands of random small
// multi-writer histories: accept/reject must agree on every input.
func TestDiffMWMR(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(20260728))
	atomic, nonAtomic := 0, 0
	for i := 0; i < 2000; i++ {
		h := genMWMRHistory(rng)
		if len(h.Ops) > MaxLinOps {
			t.Fatalf("generator produced %d ops, exhaustive checker takes %d", len(h.Ops), MaxLinOps)
		}
		mwmrErr := CheckMWMR(h)
		linErr := CheckLinearizable(h)
		if (mwmrErr == nil) != (linErr == nil) {
			t.Fatalf("oracles disagree on history %d:\n  mwmr: %v\n  lin:  %v\n  ops: %+v",
				i, mwmrErr, linErr, h.Ops)
		}
		if mwmrErr == nil {
			atomic++
		} else {
			nonAtomic++
		}
	}
	// The generator must exercise both verdicts, or the agreement above is
	// vacuous.
	if atomic < 100 || nonAtomic < 100 {
		t.Fatalf("generator is lopsided: %d atomic vs %d non-atomic histories", atomic, nonAtomic)
	}
}

// TestDiffMWMRMutations pins the subtle non-linearizable shapes the random
// generator may miss — a stale read landing between two completed writes,
// and serialization cycles between two writers — next to their legal twins,
// and demands all three oracles agree on each.
func TestDiffMWMRMutations(t *testing.T) {
	t.Parallel()
	mw := func(proc int, inv, res float64, v string) Op {
		return Op{Proc: proc, Kind: proto.OpWrite, Value: val(v), Inv: inv, Res: res, Completed: true}
	}
	mr := func(proc int, inv, res float64, v string) Op {
		var value proto.Value
		if v != "" {
			value = val(v)
		}
		return Op{Proc: proc, Kind: proto.OpRead, Value: value, Inv: inv, Res: res, Completed: true}
	}
	cases := []struct {
		name   string
		ops    []Op
		atomic bool
	}{
		{
			name: "stale read between two writes",
			ops: []Op{
				mw(0, 0, 1, "a"), mw(1, 2, 3, "b"),
				mr(2, 4, 5, "a"), // starts after write b completed
			},
			atomic: false,
		},
		{
			name: "read overlapping the second write may return the first",
			ops: []Op{
				mw(0, 0, 1, "a"), mw(1, 2, 3, "b"),
				mr(2, 2.5, 5, "a"), // starts before write b completed
			},
			atomic: true,
		},
		{
			name: "cycle between two writers via sequential readers",
			ops: []Op{
				mw(0, 0, 10, "a"), mw(1, 0, 10, "b"),
				mr(2, 11, 12, "a"), mr(3, 13, 14, "b"), // a-then-b after both ended
			},
			atomic: false,
		},
		{
			name: "cycle between two writers via concurrent readers",
			ops: []Op{
				mw(0, 0, 1, "a"), mw(1, 0, 1, "b"),
				mr(2, 2, 3, "a"), mr(3, 2, 3, "b"), // each read pins a different last write
			},
			atomic: false,
		},
		{
			name: "racing writers with agreeing readers",
			ops: []Op{
				mw(0, 0, 10, "a"), mw(1, 0, 10, "b"),
				mr(2, 11, 12, "b"), mr(3, 13, 14, "b"),
			},
			atomic: true,
		},
		{
			name: "stale initial read after a crashed write was read",
			ops: []Op{
				{Proc: 0, Kind: proto.OpWrite, Value: val("a"), Inv: 0}, // pending
				mr(1, 1, 2, "a"), mr(2, 3, 4, ""),
			},
			atomic: false,
		},
		{
			name: "interleaved writer streams read in real-time order",
			ops: []Op{
				mw(0, 0, 1, "a1"), mw(1, 1.5, 2.5, "b1"), mw(0, 3, 4, "a2"),
				mr(2, 5, 6, "a2"), mr(2, 7, 8, "a2"),
			},
			atomic: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			h := History{}
			for i, op := range tc.ops {
				op.ID = proto.OpID(i + 1)
				h.Ops = append(h.Ops, op)
			}
			mwmrErr := CheckMWMR(h)
			linErr := CheckLinearizable(h)
			if (mwmrErr == nil) != tc.atomic {
				t.Errorf("CheckMWMR = %v, want atomic=%v", mwmrErr, tc.atomic)
			}
			if (linErr == nil) != tc.atomic {
				t.Errorf("CheckLinearizable = %v, want atomic=%v", linErr, tc.atomic)
			}
		})
	}
}

// genLargeMWMRHistory builds a valid nOps-operation history with writers
// round-robinning distinct tagged values and readers returning the most
// recently completed write — far beyond what the exhaustive search accepts.
func genLargeMWMRHistory(nOps, nWriters int) History {
	h := History{}
	tm := 0.0
	last := proto.Value(nil)
	seq := make([]int, nWriters)
	for i := 0; i < nOps; i++ {
		id := proto.OpID(i + 1)
		if i%3 == 0 { // every third op is a write, cycling through writers
			p := (i / 3) % nWriters
			seq[p]++
			v := proto.Value(fmt.Sprintf("p%d.%d", p, seq[p]))
			h.Ops = append(h.Ops, Op{
				ID: id, Proc: p, Kind: proto.OpWrite, Value: v,
				Inv: tm, Res: tm + 1, Completed: true,
			})
			last = v
		} else {
			h.Ops = append(h.Ops, Op{
				ID: id, Proc: nWriters + i%2, Kind: proto.OpRead, Value: last,
				Inv: tm, Res: tm + 1, Completed: true,
			})
		}
		tm += 2
	}
	return h
}

// TestDiffMWMRLargeHistory: the cluster checker must handle 10k-operation
// multi-writer histories — and catch a single stale read planted in one —
// where the Wing–Gong search cannot even start. It takes a few
// milliseconds; the generous wall-clock bound catches a checker that turns
// quadratic, not noise.
func TestDiffMWMRLargeHistory(t *testing.T) {
	t.Parallel()
	const nOps, bound = 10_000, 2 * time.Second
	start := time.Now()
	h := genLargeMWMRHistory(nOps, 4)
	if err := CheckMWMR(h); err != nil {
		t.Fatalf("CheckMWMR rejected a valid %d-op history: %v", nOps, err)
	}
	if err := CheckLinearizable(h); err == nil || !strings.Contains(err.Error(), "at most") {
		t.Fatalf("Wing–Gong should refuse a %d-op history, got %v", nOps, err)
	}

	// Plant one stale read deep in the history: find a late read and make it
	// return a value two writes older than the preceding write.
	corrupt := h
	corrupt.Ops = append([]Op(nil), h.Ops...)
	var older proto.Value
	writesSeen := 0
	for i := range corrupt.Ops {
		op := &corrupt.Ops[i]
		if op.Kind == proto.OpWrite {
			writesSeen++
			if writesSeen == nOps/6 {
				older = op.Value
			}
		}
		if op.Kind == proto.OpRead && older != nil && writesSeen > nOps/6+1 {
			op.Value = older
			break
		}
	}
	if older == nil {
		t.Fatal("failed to plant the stale read")
	}
	if err := CheckMWMR(corrupt); err == nil {
		t.Fatal("CheckMWMR accepted a 10k-op history with a stale read")
	}
	if took := time.Since(start); took > bound {
		t.Fatalf("checking two %d-op histories took %s, bound %s", nOps, took, bound)
	}
}

// TestCheckerForSelection: For must route single-writer histories to the
// Lemma-10 path and multi-writer histories to the cluster path, and both
// selections must judge their history correctly through the interface.
func TestCheckerForSelection(t *testing.T) {
	t.Parallel()
	swmr := newHB(nil).write(0, 1, "a").read(1, 2, 3, "a").h
	if c := For(swmr); c.Name() != SWMR().Name() {
		t.Errorf("For(single-writer) = %s, want %s", c.Name(), SWMR().Name())
	} else if err := c.Check(swmr); err != nil {
		t.Errorf("selected checker rejected a valid history: %v", err)
	}

	mwmr := History{Ops: []Op{
		{ID: 1, Proc: 0, Kind: proto.OpWrite, Value: val("a"), Inv: 0, Res: 1, Completed: true},
		{ID: 2, Proc: 1, Kind: proto.OpWrite, Value: val("b"), Inv: 0.5, Res: 2, Completed: true},
	}}
	if c := For(mwmr); c.Name() != MWMR().Name() {
		t.Errorf("For(multi-writer) = %s, want %s", c.Name(), MWMR().Name())
	} else if err := c.Check(mwmr); err != nil {
		t.Errorf("selected checker rejected racing writers: %v", err)
	}
	if err := Exhaustive().Check(mwmr); err != nil {
		t.Errorf("exhaustive checker rejected racing writers: %v", err)
	}
}
