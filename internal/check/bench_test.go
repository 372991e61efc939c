package check

import (
	"fmt"
	"math/rand"
	"testing"
)

// Checker benchmarks: the hot paths of every explorer sweep and cluster
// soak. CI runs each once as a smoke; TestDiffMWMRLargeHistory bounds the
// cluster checker's wall-clock time on a 10k-op history.

func BenchmarkCheckSWMR(b *testing.B) {
	// 100k ops covers the post-sweep regime: since the claim-2/3 rewrite,
	// check.For keeps large single-writer histories on this path instead of
	// bailing to CheckMWMR at 2048 ops, so its large-history cost matters
	// too.
	for _, n := range []int{1_000, 10_000, 100_000} {
		h := genLargeMWMRHistory(n, 1)
		b.Run(fmt.Sprintf("ops=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := CheckSWMR(h); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCheckMWMR(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		h := genLargeMWMRHistory(n, 4)
		b.Run(fmt.Sprintf("ops=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := CheckMWMR(h); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckMWMRRandom measures the cluster checker on adversarial
// random histories (mixed verdicts), closer to sweep-time input than the
// clean sequential soak above.
func BenchmarkCheckMWMRRandom(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	hs := make([]History, 64)
	for i := range hs {
		hs[i] = genMWMRHistory(rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = CheckMWMR(hs[i%len(hs)])
	}
}

func BenchmarkCheckLinearizable(b *testing.B) {
	for _, n := range []int{12, 24} {
		h := genLargeMWMRHistory(n, 3)
		b.Run(fmt.Sprintf("ops=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := CheckLinearizable(h); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
