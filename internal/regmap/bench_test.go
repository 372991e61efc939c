package regmap_test

import (
	"fmt"
	"testing"

	"twobitreg/internal/metrics"
	"twobitreg/internal/proto"
	"twobitreg/internal/regmap"
	"twobitreg/internal/sim"
	"twobitreg/internal/transport"
	"twobitreg/internal/workload"
)

// BenchmarkRegmapMWMR measures the keyed multi-writer store's message cost
// across the keys x writers x skew grid, coalesced (cross-key multi-frames
// on a half-Δ flush window) versus per-key frames. The workload and
// simulator are seeded, so msgs/op is deterministic, and
// TestKeyedRunFramesExact pins every row's frame count. The E-RM1
// experiment reads the 10/50/200-key rows at 3 writers, 10:1 skew.
func BenchmarkRegmapMWMR(b *testing.B) {
	const n, ops = 5, 400
	for _, keys := range []int{10, 50, 200} {
		for _, writers := range []int{2, 3} {
			for _, skew := range []int{1, 10} {
				for _, coalesce := range []bool{false, true} {
					mode := "perkey"
					if coalesce {
						mode = "coalesced"
					}
					name := fmt.Sprintf("keys=%d/writers=%d/skew=%d/%s", keys, writers, skew, mode)
					b.Run(name, func(b *testing.B) {
						var msgs int64
						var done int
						for i := 0; i < b.N; i++ {
							msgs, done = benchKeyedRun(b, n, keys, writers, ops, skew, coalesce)
						}
						if done != ops {
							b.Fatalf("%d of %d ops completed", done, ops)
						}
						b.ReportMetric(float64(msgs)/float64(done), "msgs/op")
					})
				}
			}
		}
	}
}

// benchKeyedRun drives one seeded mixed workload (60% reads) through the
// simulator and returns (frames sent, ops completed).
func benchKeyedRun(tb testing.TB, n, keys, writers, ops, skew int, coalesce bool) (int64, int) {
	tb.Helper()
	alg := regmap.NewKeyedAlgorithm("bench-keyed", keys, regmap.Config{Coalesce: coalesce})
	spec := workload.Spec{
		Seed: 1, Ops: ops, ReadFraction: 0.6,
		Writers: make([]int, writers), Readers: make([]int, n), ValueSize: 16,
	}
	for i := range spec.Writers {
		spec.Writers[i] = i
	}
	for i := range spec.Readers {
		spec.Readers[i] = i
	}
	if skew > 1 {
		ww := make([]float64, writers)
		ww[0] = float64(skew)
		for i := 1; i < writers; i++ {
			ww[i] = 1
		}
		spec.WriterWeights = ww
	}
	wl, err := workload.Generate(spec)
	if err != nil {
		tb.Fatal(err)
	}
	col := &metrics.Collector{}
	sched := sim.New(1)
	procs := make([]proto.Process, n)
	for i := range procs {
		procs[i] = alg.New(i, n, 0)
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
	opts := []transport.Option{
		transport.WithDelay(transport.UniformDelay(0.1, 2.0)),
		transport.WithCollector(col),
		transport.WithCompletion(func(int, proto.Completion, float64) {
			done++
			inject()
			inject()
		}),
	}
	if coalesce {
		opts = append(opts, transport.WithFlushWindow(0.5))
	}
	net = transport.NewSimNet(sched, procs, opts...)
	inject()
	inject()
	net.Run()
	return col.Snapshot().TotalMsgs, done
}
