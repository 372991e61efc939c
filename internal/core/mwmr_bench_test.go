package core

import (
	"fmt"
	"testing"

	"twobitreg/internal/proto"
	"twobitreg/internal/sim"
	"twobitreg/internal/transport"
	"twobitreg/internal/workload"
)

// runMWMRWrites drives a write-only multi-writer workload through the
// simulator and returns total messages sent and writes completed. Writers
// are processes 0..writers-1; weights skew the per-write writer choice
// (nil = balanced). Writes run in the workload's global order (each
// invoked when the previous completes), so a cold writer's write pads over
// every hot write issued since its last one — the accumulated-skew regime
// whose message cost the bounded-lanes work targets.
func runMWMRWrites(tb testing.TB, n, writers, ops int, weights []float64, seed int64) (msgs int64, writes int) {
	tb.Helper()
	spec := workload.Spec{
		Seed: seed, Ops: ops, ReadFraction: 0,
		Writers: make([]int, writers), Readers: []int{0}, ValueSize: 8,
		WriterWeights: weights,
	}
	for i := range spec.Writers {
		spec.Writers[i] = i
	}
	wl, err := workload.Generate(spec)
	if err != nil {
		tb.Fatal(err)
	}

	sched := sim.New(seed)
	procs := make([]proto.Process, n)
	mws := make([]*MWProc, n)
	for i := 0; i < n; i++ {
		mws[i] = NewMWMR(i, n)
		procs[i] = mws[i]
	}
	var net *transport.SimNet
	done, next := 0, 0
	inject := func() {
		if next >= len(wl) {
			return
		}
		op := wl[next]
		next++
		net.StartWriteAt(sched.Now()+0.5, op.PID, proto.OpID(next), op.Value)
	}
	net = transport.NewSimNet(sched, procs,
		transport.WithDelay(transport.UniformDelay(0.1, 2.0)),
		transport.WithCompletion(func(int, proto.Completion, float64) {
			done++
			inject()
		}))
	inject()
	net.Run()
	if done != len(wl) {
		tb.Fatalf("%d of %d writes completed", done, len(wl))
	}
	if err := CheckMWGlobalInvariants(mws); err != nil {
		tb.Fatal(err)
	}
	for _, p := range mws {
		msgs += int64(p.MsgsSent())
	}
	return msgs, done
}

// TestMWBatchedWriteCostBoundedUnderSkew is the bounded-lanes acceptance
// test: under a 10:1 hot-writer skew the register's message cost per write
// must (a) stay within a constant factor of its balanced cost, and (b) stay
// within the flood floor n(n-1) + 2(n-1) that is independent of the
// padding gap (the writer's own share is O(n) frames per write: freshness
// round + one backlog frame per peer; a relay forwards a run as the one
// frame it arrived as).
func TestMWBatchedWriteCostBoundedUnderSkew(t *testing.T) {
	t.Parallel()
	const n, writers, ops = 5, 4, 60
	perWrite := func(weights []float64) float64 {
		var total float64
		for seed := int64(1); seed <= 3; seed++ {
			msgs, writes := runMWMRWrites(t, n, writers, ops, weights, seed)
			total += float64(msgs) / float64(writes)
		}
		return total / 3
	}
	batBal := perWrite([]float64{1, 1, 1, 1})
	batSkew := perWrite([]float64{10, 1, 1, 1})
	t.Logf("msgs/write: balanced %.1f, 10:1 %.1f", batBal, batSkew)

	// (a) Skew-independence of the batched cost.
	if batSkew > 1.3*batBal {
		t.Fatalf("batched cost grew under skew: balanced %.1f vs skewed %.1f msgs/write", batBal, batSkew)
	}
	// (b) The absolute flood bound, gap-independent: 2(n-1) freshness
	// messages plus one frame per ordered pair per write — the floor, which
	// these failure-free runs meet under random delays too.
	bound := float64(2*(n-1) + n*(n-1))
	for _, got := range []float64{batBal, batSkew} {
		if got > bound {
			t.Fatalf("batched cost %.1f msgs/write exceeds the flood bound %.0f", got, bound)
		}
	}
}

// TestMWDominatedWriteCostConstantVsLinear pins the bound at its sharpest:
// the message cost of ONE write by a writer whose lane lags G indices
// behind is independent of G — the whole padding run crosses each link as
// one compact frame, and the writer's own sends stay O(n): the freshness
// round plus one frame per peer. (Sent one round trip per padded index,
// the cost would grow linearly in G.)
//
// Two of the five processes write and nobody else has an operation, so the
// floor is the one for c = n - 2 idle members: the three relays owe
// each other the run instead of sending it. The cold writer reads once
// before the hot one starts, so that its links are already watched when the
// measured write begins (a first operation also ships what those links
// were owed — TestMWIdleProcessFirstOperation counts that).
func TestMWDominatedWriteCostConstantVsLinear(t *testing.T) {
	t.Parallel()
	const n, writers = 5, 2
	// coldCost returns (system-wide, writer-own) messages for one write by
	// writer 1 after writer 0 has completed G writes.
	coldCost := func(gap int) (int, int) {
		h := newMWHarness(t, n)
		h.read(1, proto.OpID(999))
		h.deliverAll()
		for k := 1; k <= gap; k++ {
			h.write(0, proto.OpID(k), val(fmt.Sprintf("hot-%d", k)))
			h.deliverAll()
		}
		before, wBefore := 0, h.procs[1].MsgsSent()
		for _, p := range h.procs {
			before += p.MsgsSent()
		}
		h.write(1, proto.OpID(1000), val("cold"))
		h.deliverAll()
		h.mustComplete(1000)
		after := 0
		for _, p := range h.procs {
			after += p.MsgsSent()
		}
		return after - before, h.procs[1].MsgsSent() - wBefore
	}

	batSmallSys, batSmallOwn := coldCost(5)
	batBigSys, batBigOwn := coldCost(40)
	t.Logf("dominated-write msgs: G=5 sys=%d own=%d, G=40 sys=%d own=%d",
		batSmallSys, batSmallOwn, batBigSys, batBigOwn)

	// The floor whatever the gap — 2(n-1) freshness frames plus one
	// lane frame per ordered pair with a writer at either end, of which the
	// writer's own are the freshness broadcast (n-1) plus one frame per peer.
	const idle = n - writers
	if want := 2*(n-1) + n*(n-1) - idle*(idle-1); batSmallSys != want || batBigSys != want {
		t.Fatalf("batched dominated write cost %d (G=5) and %d (G=40) messages, want the floor %d for both", batSmallSys, batBigSys, want)
	}
	if want := 2 * (n - 1); batSmallOwn != want || batBigOwn != want {
		t.Fatalf("batched writer sent %d (G=5) and %d (G=40) messages for one dominated write, want %d", batSmallOwn, batBigOwn, want)
	}
}

// mwmrWriteMix returns BenchmarkMWMRWriteMessages' writers at n: up to four,
// the first skew times as likely to write as each of the others.
func mwmrWriteMix(n int, skew float64) (writers int, weights []float64) {
	writers = min(n, 4)
	weights = make([]float64, writers)
	for i := range weights {
		weights[i] = 1
	}
	weights[0] = skew
	return writers, weights
}

// TestMWMRWriteMessagesExact pins BenchmarkMWMRWriteMessages' grid message
// for message. A balanced run pays the floor 2(n-1) + n(n-1) - c(c-1) on
// every write, with the c = n - 4 members that never write idle; the 10:1
// runs sit a little under it, because until a cold writer's first write
// every write is cheaper by the links to it.
func TestMWMRWriteMessagesExact(t *testing.T) {
	t.Parallel()
	const writes = 40
	for _, row := range []struct {
		n    int
		skew int64
	}{{3, 400}, {5, 1092}, {10, 2982}, {20, 6762}} {
		c := max(row.n-4, 0)
		balanced := int64(writes * (2*(row.n-1) + row.n*(row.n-1) - c*(c-1)))
		for _, mix := range []struct {
			skew float64
			want int64
		}{{1, balanced}, {10, row.skew}} {
			writers, weights := mwmrWriteMix(row.n, mix.skew)
			if msgs, done := runMWMRWrites(t, row.n, writers, writes, weights, 1); msgs != mix.want || done != writes {
				t.Errorf("n=%d skew=%g: %d messages for %d writes, want %d for %d", row.n, mix.skew, msgs, done, mix.want, writes)
			}
		}
	}
}

// BenchmarkMWMRWriteMessages reports write message cost under balanced and
// 10:1-skewed writer mixes, n in {3, 5, 10, 20}. msgs/op is deterministic
// (seeded workload and delays) and TestMWMRWriteMessagesExact pins it; ns/op
// tracks simulator cost.
func BenchmarkMWMRWriteMessages(b *testing.B) {
	for _, mix := range []struct {
		name string
		skew float64
	}{{"balanced", 1}, {"skew10", 10}} {
		for _, n := range []int{3, 5, 10, 20} {
			writers, weights := mwmrWriteMix(n, mix.skew)
			b.Run(fmt.Sprintf("batched/%s/n=%d", mix.name, n), func(b *testing.B) {
				var msgsPerOp float64
				for i := 0; i < b.N; i++ {
					msgs, writes := runMWMRWrites(b, n, writers, 40, weights, 1)
					msgsPerOp = float64(msgs) / float64(writes)
				}
				b.ReportMetric(msgsPerOp, "msgs/op")
			})
		}
	}
}
