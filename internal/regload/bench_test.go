package regload_test

import (
	"fmt"
	"testing"

	"twobitreg/internal/regload"
)

// BenchmarkTCPRegload is the committed TCP-runtime trajectory
// (BENCH_tcp.json, benchdiff-gated in ci.yml): a fixed-ops closed-loop run
// of the coalescing keyed store over loopback TCP, healthy ("batched")
// and in the dead-peer scenario. Each b.N iteration is one whole cluster
// run, so ns/op tracks end-to-end harness cost; the reported ops/sec and frames/write are the E-TCP1 figures.
// Wall-clock throughput is machine-dependent — the gate's job is catching
// relative regressions on the same runner (see BENCH_RUNNER.txt handling).
func BenchmarkTCPRegload(b *testing.B) {
	const ops = 400
	base := regload.Spec{
		Procs: 3, Clients: 8, Keys: 64, ReadFrac: 0.6, Ops: ops, Seed: 1,
	}
	cases := []struct {
		name   string
		mutate func(*regload.Spec)
	}{
		{"batched", func(s *regload.Spec) {}},
		{"dead-peer", func(s *regload.Spec) { s.Dead = []int{2} }},
	}
	for _, tc := range cases {
		b.Run(fmt.Sprintf("procs=3/clients=8/%s", tc.name), func(b *testing.B) {
			var last *regload.Report
			for i := 0; i < b.N; i++ {
				spec := base
				tc.mutate(&spec)
				rep, err := regload.Run(spec)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Ops < ops {
					b.Fatalf("completed %d of %d ops", rep.Ops, ops)
				}
				if rep.OpErrors != 0 || rep.Mesh.DecodeErrors != 0 {
					b.Fatalf("errors: op=%d decode=%d", rep.OpErrors, rep.Mesh.DecodeErrors)
				}
				last = rep
			}
			b.ReportMetric(last.OpsPerSec, "ops/sec")
			b.ReportMetric(last.Mesh.FramesPerWrite(), "frames/write")
			b.ReportMetric(float64(last.ReadLat.P99Ns), "read-p99-ns")
		})
	}
}
