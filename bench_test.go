// Benchmarks regenerating the paper's evaluation. One benchmark family per
// Table 1 row (the paper's only table — it has no figures), plus the
// supplementary experiments indexed in internal/eval's package doc:
// Theorem 2's census (E2), the read-dominated workload claim (E3), crash
// impact (E4), and the explicit-seqnum ablation (E5).
//
// Reported custom metrics:
//
//	msgs/op        messages per operation            (rows 1-2)
//	ctrlbits/msg   control bits per message          (row 3)
//	membits        local storage bits per process    (row 4)
//	delta          operation latency in Δ units      (rows 5-6)
//
// EXPERIMENTS.md records these numbers next to the paper's entries.
package twobitreg_test

import (
	"fmt"
	"testing"

	"twobitreg"

	"twobitreg/internal/abd"
	"twobitreg/internal/core"
	"twobitreg/internal/eval"
	"twobitreg/internal/phased"
	"twobitreg/internal/proto"
)

// tableNs are the system sizes the sweeps cover.
var tableNs = []int{3, 5, 10, 20, 40}

func columns() []proto.Algorithm {
	return []proto.Algorithm{
		abd.Algorithm(),
		phased.Algorithm(phased.BoundedABD()),
		phased.Algorithm(phased.Attiya()),
		core.Algorithm(),
	}
}

// BenchmarkTable1Row1WriteMessages measures messages per write.
// Paper: ABD O(n), bounded ABD O(n²), Attiya O(n), proposed O(n²).
func BenchmarkTable1Row1WriteMessages(b *testing.B) {
	for _, alg := range columns() {
		for _, n := range tableNs {
			b.Run(fmt.Sprintf("%s/n=%d", alg.Name(), n), func(b *testing.B) {
				d := eval.NewDriver(alg, n)
				d.ResetMetrics()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					d.Write(eval.Value(i))
				}
				b.ReportMetric(float64(d.Snapshot().TotalMsgs)/float64(b.N), "msgs/op")
			})
		}
	}
}

// BenchmarkTable1Row2ReadMessages measures messages per quiescent read.
// Paper: ABD O(n), bounded ABD O(n²), Attiya O(n), proposed O(n).
func BenchmarkTable1Row2ReadMessages(b *testing.B) {
	for _, alg := range columns() {
		for _, n := range tableNs {
			b.Run(fmt.Sprintf("%s/n=%d", alg.Name(), n), func(b *testing.B) {
				d := eval.NewDriver(alg, n)
				d.Write(eval.Value(0))
				reader := 0
				if n > 1 {
					reader = 1
				}
				d.ResetMetrics()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					d.Read(reader)
				}
				b.ReportMetric(float64(d.Snapshot().TotalMsgs)/float64(b.N), "msgs/op")
			})
		}
	}
}

// BenchmarkTable1Row3MessageBits measures control bits per message on a
// mixed workload. Paper: ABD unbounded, bounded ABD O(n⁵), Attiya O(n³),
// proposed 2.
func BenchmarkTable1Row3MessageBits(b *testing.B) {
	const n = 10
	for _, alg := range columns() {
		b.Run(fmt.Sprintf("%s/n=%d", alg.Name(), n), func(b *testing.B) {
			d := eval.NewDriver(alg, n)
			d.ResetMetrics()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Write(eval.Value(i))
				d.Read(1)
			}
			s := d.Snapshot()
			b.ReportMetric(s.MeanCtrlBitsPerMsg, "ctrlbits/msg")
			b.ReportMetric(float64(s.MaxCtrlBits), "maxctrlbits")
		})
	}
}

// BenchmarkTable1Row4LocalMemory measures per-process storage after b.N
// writes. Paper: ABD unbounded (counter only), bounded ABD O(n⁶), Attiya
// O(n⁵), proposed unbounded (history).
func BenchmarkTable1Row4LocalMemory(b *testing.B) {
	const n = 5
	for _, alg := range columns() {
		b.Run(fmt.Sprintf("%s/n=%d", alg.Name(), n), func(b *testing.B) {
			d := eval.NewDriver(alg, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Write(eval.Value(i))
			}
			b.ReportMetric(float64(d.MemoryBits()), "membits")
		})
	}
}

// BenchmarkTable1Row5WriteTime measures write latency in Δ units.
// Paper: ABD 2Δ, bounded ABD 12Δ, Attiya 14Δ, proposed 2Δ.
func BenchmarkTable1Row5WriteTime(b *testing.B) {
	const n = 5
	for _, alg := range columns() {
		b.Run(fmt.Sprintf("%s/n=%d", alg.Name(), n), func(b *testing.B) {
			d := eval.NewDriver(alg, n)
			var total float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				total += d.Write(eval.Value(i))
			}
			b.ReportMetric(total/float64(b.N), "delta")
		})
	}
}

// BenchmarkTable1Row6ReadTime measures read latency in Δ units, quiescent
// and racing a write. Paper: ABD 4Δ, bounded ABD 12Δ, Attiya 18Δ,
// proposed 4Δ (worst case; 2Δ quiescent).
func BenchmarkTable1Row6ReadTime(b *testing.B) {
	const n = 5
	for _, alg := range columns() {
		b.Run(fmt.Sprintf("%s/quiescent/n=%d", alg.Name(), n), func(b *testing.B) {
			d := eval.NewDriver(alg, n)
			d.Write(eval.Value(0))
			var total float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				total += d.Read(1)
			}
			b.ReportMetric(total/float64(b.N), "delta")
		})
		b.Run(fmt.Sprintf("%s/concurrent/n=%d", alg.Name(), n), func(b *testing.B) {
			d := eval.NewDriver(alg, n)
			var total float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				total += d.WriteConcurrentRead(eval.Value(i), 1)
			}
			b.ReportMetric(total/float64(b.N), "delta")
		})
	}
}

// BenchmarkTheorem2TypeCensus verifies, at benchmark scale, that the two-bit
// register's traffic consists of exactly four message types carrying two
// control bits each (experiment E2).
func BenchmarkTheorem2TypeCensus(b *testing.B) {
	d := eval.NewDriver(core.Algorithm(), 7)
	d.ResetMetrics()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Two writes per iteration so both WRITE parities appear even
		// in the b.N = 1 calibration pass.
		d.Write(eval.Value(2 * i))
		d.Write(eval.Value(2*i + 1))
		d.Read(1 + i%6)
	}
	s := d.Snapshot()
	if s.DistinctMessageTypes != 4 {
		b.Fatalf("distinct types = %d, want 4", s.DistinctMessageTypes)
	}
	if s.MaxCtrlBits != 2 {
		b.Fatalf("max control bits = %d, want 2", s.MaxCtrlBits)
	}
	b.ReportMetric(float64(s.DistinctMessageTypes), "types")
	b.ReportMetric(s.MeanCtrlBitsPerMsg, "ctrlbits/msg")
}

// BenchmarkReadDominated compares two-bit vs ABD network cost across read
// mixes (experiment E3, the paper's §5 claim).
func BenchmarkReadDominated(b *testing.B) {
	const n = 7
	for _, alg := range []proto.Algorithm{core.Algorithm(), abd.Algorithm()} {
		for _, frac := range []float64{0.99, 0.90, 0.50} {
			b.Run(fmt.Sprintf("%s/reads=%.0f%%", alg.Name(), frac*100), func(b *testing.B) {
				d := eval.NewDriver(alg, n)
				d.ResetMetrics()
				writes := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// Deterministic interleaving matching frac.
					if float64(writes) <= (1-frac)*float64(i) {
						d.Write(eval.Value(writes))
						writes++
					} else {
						d.Read(1 + i%(n-1))
					}
				}
				s := d.Snapshot()
				b.ReportMetric(float64(s.TotalMsgs)/float64(b.N), "msgs/op")
				b.ReportMetric(float64(s.ControlBits)/float64(b.N), "ctrlbits/op")
			})
		}
	}
}

// BenchmarkCrashImpact measures two-bit latency with f crashed processes
// (experiment E4): crashes must not slow the survivors.
func BenchmarkCrashImpact(b *testing.B) {
	const n = 5
	for f := 0; f <= 2; f++ {
		b.Run(fmt.Sprintf("crashes=%d", f), func(b *testing.B) {
			d := eval.NewDriver(core.Algorithm(), n)
			for i := 0; i < f; i++ {
				d.Crash(n - 1 - i)
			}
			var total float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				total += d.Write(eval.Value(i))
			}
			b.ReportMetric(total/float64(b.N), "delta")
		})
	}
}

// BenchmarkAblationSeqnumOracle compares the two-bit encoding against the
// explicit-seqnum oracle variant (experiment E5): identical behaviour, 33×
// the control volume.
func BenchmarkAblationSeqnumOracle(b *testing.B) {
	const n = 5
	variants := map[string]proto.Algorithm{
		"twobit": core.Algorithm(),
		"oracle": core.Algorithm(core.WithExplicitSeqnums()),
	}
	for name, alg := range variants {
		b.Run(name, func(b *testing.B) {
			d := eval.NewDriver(alg, n)
			d.ResetMetrics()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Write(eval.Value(i))
				d.Read(1)
			}
			s := d.Snapshot()
			b.ReportMetric(s.MeanCtrlBitsPerMsg, "ctrlbits/msg")
			b.ReportMetric(float64(s.TotalMsgs)/float64(b.N), "msgs/op")
		})
	}
}

// BenchmarkAblationHistoryGC quantifies the history garbage-collection
// extension (the paper's unbounded-local-memory discussion, §5): retained
// memory bits per process after b.N writes, with and without GC.
func BenchmarkAblationHistoryGC(b *testing.B) {
	const n = 5
	variants := map[string]proto.Algorithm{
		"paper-faithful": core.Algorithm(),
		"history-gc":     core.Algorithm(core.WithHistoryGC()),
	}
	for name, alg := range variants {
		b.Run(name, func(b *testing.B) {
			d := eval.NewDriver(alg, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Write(eval.Value(i))
			}
			b.ReportMetric(float64(d.MemoryBits()), "membits")
		})
	}
}

// BenchmarkScalingLatency confirms rows 5-6 hold independent of n: the
// two-bit register's Δ-unit latencies do not grow with system size.
func BenchmarkScalingLatency(b *testing.B) {
	for _, n := range tableNs {
		b.Run(fmt.Sprintf("write/n=%d", n), func(b *testing.B) {
			d := eval.NewDriver(core.Algorithm(), n)
			var total float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				total += d.Write(eval.Value(i))
			}
			b.ReportMetric(total/float64(b.N), "delta")
		})
	}
}

// BenchmarkClusterThroughput measures wall-clock operation latency through
// the real goroutine runtime (not part of Table 1; sanity for adopters).
func BenchmarkClusterThroughput(b *testing.B) {
	b.Run("write/n=5", func(b *testing.B) {
		reg, err := twobitreg.Start(5)
		if err != nil {
			b.Fatal(err)
		}
		defer reg.Stop()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := reg.Write(eval.Value(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read/n=5", func(b *testing.B) {
		reg, err := twobitreg.Start(5)
		if err != nil {
			b.Fatal(err)
		}
		defer reg.Stop()
		if err := reg.Write([]byte("v")); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := reg.Read(1 + i%4); err != nil {
				b.Fatal(err)
			}
		}
	})
}
