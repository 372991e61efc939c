package regmap_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"twobitreg/internal/cluster"
	"twobitreg/internal/metrics"
	"twobitreg/internal/proto"
	"twobitreg/internal/regmap"
	"twobitreg/internal/sim"
	"twobitreg/internal/transport"
	"twobitreg/internal/workload"
)

// TestStorePerKeyWriterSets pins the multi-writer store surface: per-key
// writer sets from Config, writes through each member of a key's set, and
// ErrNotWriter for writes through out-of-set processes — per key, not per
// store.
func TestStorePerKeyWriterSets(t *testing.T) {
	t.Parallel()
	s := startStore(t, regmap.Config{
		N:       5,
		Writers: map[string][]int{"shared": {0, 1, 2}, "p3only": {3}},
	}, nil)

	shared := []int{0, 1, 2}
	for pid := 0; pid < 5; pid++ {
		if got, want := s.procs[0].IsWriter("shared", pid), pid <= 2; got != want {
			t.Fatalf("IsWriter(shared, %d) = %v, want %v", pid, got, want)
		}
		if !s.procs[4].IsWriter("unlisted", pid) {
			t.Fatalf("IsWriter(unlisted, %d) = false, want the default: every process", pid)
		}
	}

	for i, w := range shared {
		if err := s.WriteVia(w, "shared", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	// Writes outside a key's set fail with ErrNotWriter — per key.
	if err := s.WriteVia(3, "shared", []byte("x")); !errors.Is(err, cluster.ErrNotWriter) {
		t.Fatalf("p3 write to shared: %v, want ErrNotWriter", err)
	}
	if err := s.WriteVia(0, "p3only", []byte("x")); !errors.Is(err, cluster.ErrNotWriter) {
		t.Fatalf("p0 write to p3only: %v, want ErrNotWriter", err)
	}
	if err := s.WriteVia(3, "p3only", []byte("theirs")); err != nil {
		t.Fatal(err)
	}

	// Sequential writes settle: every process reads the last value.
	if err := s.WriteVia(2, "shared", []byte("final")); err != nil {
		t.Fatal(err)
	}
	for pid := 0; pid < 5; pid++ {
		v, err := s.Read(pid, "shared")
		if err != nil {
			t.Fatal(err)
		}
		if string(v) != "final" {
			t.Fatalf("p%d read %q, want final", pid, v)
		}
	}
}

// TestStoreBadWriterSet pins the validation path: invalid writer sets
// surface as typed *proto.WriterSetError values at construction time.
func TestStoreBadWriterSet(t *testing.T) {
	t.Parallel()
	_, err := regmap.NewNode(0, regmap.Config{N: 3, Writers: map[string][]int{"k": {0, 7}}})
	var wse *proto.WriterSetError
	if !errors.As(err, &wse) {
		t.Fatalf("out-of-range writer set: %v, want a *proto.WriterSetError", err)
	}
	if _, err := regmap.NewNode(0, regmap.Config{N: 3, DefaultWriters: []int{1, 1}}); err == nil {
		t.Fatal("duplicate default writer set accepted")
	}
}

// TestStoreConcurrentMultiWriter race-stresses the multi-writer keyed
// store: three writers hammer fifty shared keys concurrently with readers
// on every process, then quiescent reads must agree across processes key by
// key (two sequential reads with no writes in flight may not disagree).
func TestStoreConcurrentMultiWriter(t *testing.T) {
	t.Parallel()
	const n, keys, rounds = 5, 50, 6
	s := startStore(t, regmap.Config{
		N:              n,
		DefaultWriters: []int{0, 1, 2},
		Coalesce:       true,
	}, nil)

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 1; r <= rounds; r++ {
				for k := 0; k < keys; k++ {
					if err := s.WriteVia(w, key(k), []byte(fmt.Sprintf("w%d.%d", w, r))); err != nil {
						t.Errorf("writer %d key %d: %v", w, k, err)
						return
					}
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			pid := (w + 2) % n
			for r := 0; r < rounds; r++ {
				for k := 0; k < keys; k += 7 {
					if _, err := s.Read(pid, key(k)); err != nil {
						t.Errorf("reader %d key %d: %v", pid, k, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for k := 0; k < keys; k++ {
		var first []byte
		for pid := 0; pid < n; pid++ {
			v, err := s.Read(pid, key(k))
			if err != nil {
				t.Fatal(err)
			}
			if pid == 0 {
				first = v
			} else if string(v) != string(first) {
				t.Fatalf("key %d: p0 reads %q, p%d reads %q after quiescence", k, first, pid, v)
			}
		}
		if len(first) == 0 {
			t.Fatalf("key %d read empty after %d writes", k, 3*rounds)
		}
	}
}

// TestStoreMultiWriterCrash crashes one writer of a three-writer key; the
// surviving majority keeps writing and reading.
func TestStoreMultiWriterCrash(t *testing.T) {
	t.Parallel()
	s := startStore(t, regmap.Config{N: 5, DefaultWriters: []int{0, 1, 2}}, nil)
	if err := s.WriteVia(1, "k", []byte("before")); err != nil {
		t.Fatal(err)
	}
	s.Crash(1)
	if err := s.WriteVia(2, "k", []byte("after")); err != nil {
		t.Fatalf("surviving writer: %v", err)
	}
	v, err := s.Read(3, "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "after" {
		t.Fatalf("read %q, want after", v)
	}
	if err := s.WriteVia(1, "k", []byte("zombie")); !errors.Is(err, cluster.ErrCrashed) {
		t.Fatalf("write via crashed writer: %v, want ErrCrashed", err)
	}
}

// TestKeyedCensusTwoBitsPerEntry is the Theorem-2 census under the full
// stack: a coalescing multi-writer keyed store run in the simulator must
// report exactly 2 control bits per logical entry, with every key byte
// (and lane id / length / count byte) accounted as addressing — and the
// run must actually ship cross-key multi-frames, or the census proved
// nothing about them.
func TestKeyedCensusTwoBitsPerEntry(t *testing.T) {
	t.Parallel()
	col := &metrics.Collector{}
	msgs, done := runKeyedSim(t, simParams{
		n: 5, keys: 50, writers: 3, ops: 200, readFrac: 0.5, seed: 42,
		coalesce: true, col: col,
	})
	if done != 200 {
		t.Fatalf("%d of 200 ops completed", done)
	}
	snap := col.Snapshot()
	if snap.MeanCtrlBitsPerEntry != 2.0 {
		t.Fatalf("census: %.6f control bits per logical entry, want exactly 2 (ctrl=%d addr=%d entries=%d)",
			snap.MeanCtrlBitsPerEntry, snap.ControlBits, snap.AddressingBits, snap.LogicalEntries)
	}
	if snap.MsgsByType["MULTI"] == 0 {
		t.Fatalf("no cross-key multi-frames shipped (types: %v)", snap.MsgsByType)
	}
	if msgs >= snap.LogicalEntries {
		t.Fatalf("frames %d >= entries %d: coalescing never shared a frame", msgs, snap.LogicalEntries)
	}
}

// TestKeyedCoalescingBeatsPerKeyFrames pins the tentpole's payoff: the
// same keyed workload costs measurably fewer frames with cross-key
// coalescing than with per-key frames.
func TestKeyedCoalescingBeatsPerKeyFrames(t *testing.T) {
	t.Parallel()
	p := simParams{n: 5, keys: 50, writers: 3, ops: 300, readFrac: 0.5, seed: 7}
	perKey, doneA := runKeyedSim(t, p)
	p.coalesce = true
	coalesced, doneB := runKeyedSim(t, p)
	if doneA != p.ops || doneB != p.ops {
		t.Fatalf("incomplete runs: %d / %d of %d", doneA, doneB, p.ops)
	}
	if coalesced >= perKey {
		t.Fatalf("coalesced run sent %d frames, per-key run %d — coalescing must win", coalesced, perKey)
	}
	t.Logf("frames for %d ops over %d keys: per-key %d, coalesced %d (%.1f%%)",
		p.ops, p.keys, perKey, coalesced, 100*float64(coalesced)/float64(perKey))
}

// TestKeyedRunFramesExact pins BenchmarkRegmapMWMR's grid frame for frame:
// the workload and the simulator are seeded, so each row's count is a
// property of the protocol and the coalescer, and any change to either moves
// it.
func TestKeyedRunFramesExact(t *testing.T) {
	t.Parallel()
	const n, ops = 5, 400
	for _, row := range []struct {
		keys, writers, skew int
		perKey, coalesced   int64
	}{
		{10, 2, 1, 6262, 1742}, {10, 2, 10, 6264, 1595},
		{10, 3, 1, 6268, 1538}, {10, 3, 10, 6261, 1596},
		{50, 2, 1, 6091, 799}, {50, 2, 10, 6026, 820},
		{50, 3, 1, 6167, 825}, {50, 3, 10, 6081, 872},
		{200, 2, 1, 4984, 628}, {200, 2, 10, 4966, 594},
		{200, 3, 1, 5164, 688}, {200, 3, 10, 4966, 628},
	} {
		for _, coalesce := range []bool{false, true} {
			want := row.perKey
			if coalesce {
				want = row.coalesced
			}
			msgs, done := benchKeyedRun(t, n, row.keys, row.writers, ops, row.skew, coalesce)
			if msgs != want || done != ops {
				t.Errorf("keys=%d writers=%d skew=%d coalesce=%v: %d frames for %d ops, want %d for %d",
					row.keys, row.writers, row.skew, coalesce, msgs, done, want, ops)
			}
		}
	}
}

type simParams struct {
	n, keys, writers, ops int
	readFrac              float64
	seed                  int64
	coalesce              bool
	col                   *metrics.Collector
}

// runKeyedSim drives a keyed mixed workload through the simulator and
// returns (frames sent, ops completed).
func runKeyedSim(t *testing.T, p simParams) (int64, int) {
	t.Helper()
	alg := regmap.NewKeyedAlgorithm("keyed-test", p.keys, regmap.Config{Coalesce: p.coalesce})
	spec := workload.Spec{
		Seed: p.seed, Ops: p.ops, ReadFraction: p.readFrac,
		Writers: make([]int, p.writers), Readers: make([]int, p.n), ValueSize: 8,
	}
	for i := range spec.Writers {
		spec.Writers[i] = i
	}
	for i := range spec.Readers {
		spec.Readers[i] = i
	}
	wl, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	col := p.col
	if col == nil {
		col = &metrics.Collector{}
	}
	sched := sim.New(p.seed)
	procs := make([]proto.Process, p.n)
	for i := range procs {
		procs[i] = alg.New(i, p.n, 0)
	}
	var net *transport.SimNet
	done, next := 0, 0
	inject := func() {
		if next >= len(wl) {
			return
		}
		op := wl[next]
		next++
		id := proto.OpID(next)
		if op.Kind == proto.OpWrite {
			net.StartWriteAt(sched.Now()+0.25, op.PID, id, op.Value)
		} else {
			net.StartReadAt(sched.Now()+0.25, op.PID, id)
		}
	}
	net = transport.NewSimNet(sched, procs,
		transport.WithDelay(transport.UniformDelay(0.1, 2.0)),
		transport.WithCollector(col),
		transport.WithFlushWindow(0.5),
		transport.WithCompletion(func(int, proto.Completion, float64) {
			done++
			inject()
			inject()
		}))
	inject()
	inject()
	net.Run()
	return col.Snapshot().TotalMsgs, done
}

func key(k int) string { return fmt.Sprintf("key-%03d", k) }

// TestNodeOwedSumsLazyLinks: Node.Owed is the per-peer sum, over keys and
// lanes, of what the lanes hold back on links where nobody waits — and a
// READ on one key settles that key only.
func TestNodeOwedSumsLazyLinks(t *testing.T) {
	t.Parallel()
	const n, keys = 4, 3
	nodes := make([]*regmap.Node, n)
	for i := range nodes {
		nd, err := regmap.NewNode(i, regmap.Config{N: n, DefaultWriters: []int{0, 1, 2, 3}})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
	}
	type frame struct {
		from, to int
		msg      proto.Message
	}
	var queue []frame
	run := func(pid int, eff proto.Effects) {
		for _, s := range eff.Sends {
			queue = append(queue, frame{pid, s.To, s.Msg})
		}
		for len(queue) > 0 {
			f := queue[0]
			queue = queue[1:]
			for _, s := range nodes[f.to].Deliver(f.from, f.msg).Sends {
				queue = append(queue, frame{f.to, s.To, s.Msg})
			}
		}
	}
	op := proto.OpID(0)
	for k := 0; k < keys; k++ {
		for i := 0; i < 2; i++ {
			op++
			run(0, nodes[0].Start(fmt.Sprintf("k%d", k), op, proto.OpWrite, proto.Value(fmt.Sprintf("v%d", op))))
		}
	}
	// p0 wrote two indices on each of three keys; p2 and p3 only relayed.
	if got := nodes[2].Owed(3); got != 2*keys {
		t.Fatalf("p2 owes p3 %d indices, want %d", got, 2*keys)
	}
	if got := nodes[2].Owed(0) + nodes[0].Owed(2); got != 0 {
		t.Fatalf("the writer's links owe %d indices", got)
	}
	op++
	run(3, nodes[3].Start("k1", op, proto.OpRead, nil))
	if got := nodes[2].Owed(3); got != 2*(keys-1) {
		t.Fatalf("after p3 read one key p2 owes it %d indices, want %d", got, 2*(keys-1))
	}
	if got := nodes[3].Owed(2); got != 2*(keys-1) {
		t.Fatalf("after its read p3 owes p2 %d indices, want %d", got, 2*(keys-1))
	}
}
