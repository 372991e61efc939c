package main

import (
	"fmt"
	"math/rand"
)

// Load shape shared by every workload (bench/README.md gives the reasons).
const (
	// sessions is the number of regclient.Client instances; session s
	// prefers shard member s, so members 0 and 1 carry the client load.
	sessions = 2
	// numKeys is the key-space size; keys are drawn uniformly.
	numKeys = 64
	// valueSize is the written payload in bytes (see writeValue).
	valueSize = 16
)

// workload is one traffic mix against one cluster shape. The names are
// fixed: later issues cite them.
type workload struct {
	Name string
	// Why is BENCHMARK.json's one-line reason for the workload.
	Why string
	// N is the quorum-group size; every process is in every key's writer
	// set.
	N int
	// Durable attaches a storage.FileWAL (fsync on) to every process.
	Durable bool
	// ReadFrac is the probability an operation is a read.
	ReadFrac float64
	// InFlight is the number of closed-loop callers sharing each session.
	InFlight int
	// Kill is the member crashed at the instant the measured window opens
	// (-1 = none). It must hold no client session.
	Kill int
}

// workloads lists the benchmark's four traffic mixes. The two write-heavy
// ones keep a 10% read share so that every end-to-end metric, the read
// latencies included, exists on every workload — BENCHMARK.json fixes one
// metric list for all of them.
var workloads = []workload{
	{
		Name: "mixed-volatile", N: 3, ReadFrac: 0.5, InFlight: 1, Kill: -1,
		Why: "what regnode deploys today: n=3, no storage, 50% reads, 1 op in flight per session; latency-bound, storage bypassed",
	},
	{
		Name: "durable-pipelined", N: 3, Durable: true, ReadFrac: 0.1, InFlight: 8, Kill: -1,
		Why: "n=3 with an fsync'd FileWAL per process, 90% writes, 8 in flight per session; the only workload where sync-path and batching changes can show",
	},
	{
		Name: "wide-write", N: 7, ReadFrac: 0.1, InFlight: 1, Kill: -1,
		Why: "n=7, no storage, 90% writes, 1 in flight per session; the n-squared echo flood does the work, so step, send and dissemination costs show",
	},
	{
		Name: "crash-one", N: 3, ReadFrac: 0.5, InFlight: 4, Kill: 2,
		Why: "n=3, 50% reads, 4 in flight per session, member 2 killed as measurement starts; guards the degraded path (redials, drops) with zero failed ops",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.Name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// keyNames are the store keys k0000..k0063.
var keyNames = func() [numKeys]string {
	var ks [numKeys]string
	for i := range ks {
		ks[i] = fmt.Sprintf("k%04d", i)
	}
	return ks
}()

// genOp is one generated operation: a read of a key, or a write of a
// value no other write of the run carries.
type genOp struct {
	Read bool
	Key  int
	Val  []byte // nil for reads
}

// opStream is one closed-loop caller's seeded operation source. The
// program under test sees only what it yields.
type opStream struct {
	rng      *rand.Rand
	readFrac float64
	worker   int
	seq      uint64
}

// newOpStream derives a caller's stream from the run seed, the repetition
// and the caller's index: equal arguments give byte-identical streams.
func newOpStream(seed int64, rep, worker int, readFrac float64) *opStream {
	src := seed*1000003 + int64(rep)*1009 + int64(worker)
	return &opStream{rng: rand.New(rand.NewSource(src)), readFrac: readFrac, worker: worker}
}

func (s *opStream) next() genOp {
	op := genOp{Key: s.rng.Intn(numKeys), Read: s.rng.Float64() < s.readFrac}
	if !op.Read {
		s.seq++
		op.Val = writeValue(s.worker, s.seq)
	}
	return op
}

// writeValue renders the 16-byte payload "wNN-SSSSSSSSSSSS" (worker id,
// per-worker sequence). Values are pairwise distinct within a repetition,
// which is what makes the recorded histories checkable.
func writeValue(worker int, seq uint64) []byte {
	v := make([]byte, valueSize)
	v[0], v[1], v[2], v[3] = 'w', byte('0'+worker/10%10), byte('0'+worker%10), '-'
	for i := valueSize - 1; i >= 4; i-- {
		v[i] = byte('0' + seq%10)
		seq /= 10
	}
	return v
}
