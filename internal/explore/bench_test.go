package explore

import (
	"runtime"
	"testing"
)

// BenchmarkSweepThroughput measures schedules/second through explore.Run —
// the quantity the nightly sweep budget buys. The simulator's delivery hot
// path (pooled events, no per-message closure) is what this tracks; the
// schedule shape mirrors a nightly sweep cell.
func BenchmarkSweepThroughput(b *testing.B) {
	for _, alg := range []string{"twobit", "twobit-mwmr"} {
		b.Run(alg, func(b *testing.B) {
			writers := 0
			if alg == "twobit-mwmr" {
				writers = 3
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := Run(Schedule{
					Alg: alg, Strategy: "uniform", Seed: int64(i + 1),
					N: 5, Ops: 40, ReadFrac: 0.6, Writers: writers,
				})
				if err != nil {
					b.Fatal(err)
				}
				if r.Failed() {
					b.Fatalf("violation on %s: %s", r.Token, r.Violation())
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sched/s")
		})
	}
}

// BenchmarkSweepParallel measures the same schedule family through the
// sharded Sweep engine at 1 worker and at GOMAXPROCS, so the ratio of the
// two sched/s readings is the parallel speedup on the host (≈1 on one core,
// ≈GOMAXPROCS on an idle multi-core runner — schedules share no state).
// Neither case name ends in a number (workers-one, workers-max), so the
// names read the same on hosts with different core counts.
func BenchmarkSweepParallel(b *testing.B) {
	for _, bc := range []struct {
		name    string
		workers int
	}{{"workers-one", 1}, {"workers-max", runtime.GOMAXPROCS(0)}} {
		workers := bc.workers
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Sweep(SweepSpec{
					Algs: []string{"twobit-mwmr"}, Strategies: []string{"uniform"},
					N: 5, Ops: 40, ReadFrac: 0.6, Writers: 3,
					Budget: 8, Seed0: int64(1 + 8*i), Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Failures) > 0 {
					b.Fatalf("violation on %s", res.Failures[0].Token)
				}
			}
			b.ReportMetric(float64(8*b.N)/b.Elapsed().Seconds(), "sched/s")
		})
	}
}
