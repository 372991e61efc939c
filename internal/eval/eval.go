// Package eval regenerates the paper's evaluation: Table 1 (the paper's only
// table; it has no figures; RunTable1, cmd/table1) plus four supplementary
// experiments. This comment is their index; EXPERIMENTS.md records results.
//
//   - E2, Theorem 2's message census: the two-bit register sends exactly
//     four message types of two control bits each. MeasureBits;
//     TestTheorem2Census, BenchmarkTheorem2TypeCensus.
//   - E3, the read-dominated workload claim (§5): at high read fractions
//     the two-bit register uses fewer messages per operation than ABD.
//     MeasureMix; TestMeasureMixReadDominatedFavorsTwoBit,
//     BenchmarkReadDominated, examples/readdominated.
//   - E4, crash impact: up to t crashed processes do not slow the
//     survivors. MeasureCrash; TestMeasureCrashKeepsLatency,
//     BenchmarkCrashImpact.
//   - E5, the seqnum ablation: the two-bit register against its
//     explicit-seqnum twin (core.WithExplicitSeqnums, registry name
//     twobit-oracle), identical behaviour at many times the control volume.
//     TestExplicitSeqnumAblationEquivalence (internal/core),
//     BenchmarkAblationSeqnumOracle.
//
// Table 1's bounded-ABD and Attiya columns are internal/phased comparators
// that account their control payloads (Message.ControlBits) rather than
// materialize them: a Θ(n⁵)-bit payload per message would make the
// simulation infeasible and change no measured quantity.
//
// Every measurement runs on the deterministic virtual-time simulator with
// per-message delay exactly Δ = 1, matching the paper's timing model
// (bounded transfer delay Δ, instantaneous local computation, failure-free).
package eval

import (
	"fmt"

	"twobitreg/internal/abd"
	"twobitreg/internal/core"
	"twobitreg/internal/metrics"
	"twobitreg/internal/phased"
	"twobitreg/internal/proto"
	"twobitreg/internal/sim"
	"twobitreg/internal/transport"
	"twobitreg/internal/workload"
)

// Columns returns the four algorithms of Table 1, in the paper's column
// order: ABD unbounded, ABD bounded, Attiya, and the proposed algorithm.
func Columns() []proto.Algorithm {
	return []proto.Algorithm{
		abd.Algorithm(),
		phased.Algorithm(phased.BoundedABD()),
		phased.Algorithm(phased.Attiya()),
		core.Algorithm(),
	}
}

// runner drives one algorithm instance under the simulator, recording
// completions and metrics. It is the non-test sibling of
// internal/prototest.SimRig.
type runner struct {
	sched *sim.Scheduler
	net   *transport.SimNet
	col   *metrics.Collector
	done  map[proto.OpID]float64 // completion time by op
	vals  map[proto.OpID]proto.Value
}

func newRunner(alg proto.Algorithm, n, writer int, seed int64, delay transport.DelayFn) *runner {
	r := &runner{
		sched: sim.New(seed),
		col:   &metrics.Collector{},
		done:  make(map[proto.OpID]float64),
		vals:  make(map[proto.OpID]proto.Value),
	}
	procs := make([]proto.Process, n)
	for i := 0; i < n; i++ {
		procs[i] = alg.New(i, n, writer)
	}
	r.net = transport.NewSimNet(r.sched, procs,
		transport.WithDelay(delay),
		transport.WithCollector(r.col),
		transport.WithCompletion(func(_ int, c proto.Completion, at float64) {
			r.done[c.Op] = at
			r.vals[c.Op] = c.Value
		}),
	)
	return r
}

// mustDone returns the completion time of op, panicking if it never finished
// (all eval workloads are failure-free, so non-termination is a bug).
func (r *runner) mustDone(op proto.OpID) float64 {
	at, ok := r.done[op]
	if !ok {
		panic(fmt.Sprintf("eval: op %d never completed", op))
	}
	return at
}

// MsgCost holds the measured message count per operation.
type MsgCost struct {
	PerWrite float64
	PerRead  float64
}

// MeasureMsgs returns messages per quiescent write and per quiescent read
// for alg at system size n (Table 1 rows 1-2). Reads are issued by a
// non-writer when one exists.
func MeasureMsgs(alg proto.Algorithm, n int, ops int) MsgCost {
	r := newRunner(alg, n, 0, 1, transport.FixedDelay(1))
	var op proto.OpID
	// Writes, quiescing between ops so each is measured in isolation.
	r.col.Reset()
	for k := 0; k < ops; k++ {
		op++
		r.net.StartWriteAt(r.sched.Now()+1, 0, op, []byte(fmt.Sprintf("v%d", k)))
		r.net.Run()
		r.mustDone(op)
	}
	perWrite := float64(r.col.Snapshot().TotalMsgs) / float64(ops)

	reader := 0
	if n > 1 {
		reader = 1
	}
	r.col.Reset()
	for k := 0; k < ops; k++ {
		op++
		r.net.StartReadAt(r.sched.Now()+1, reader, op)
		r.net.Run()
		r.mustDone(op)
	}
	perRead := float64(r.col.Snapshot().TotalMsgs) / float64(ops)
	return MsgCost{PerWrite: perWrite, PerRead: perRead}
}

// BitCost holds control-size measurements (Table 1 row 3).
type BitCost struct {
	MaxCtrlBits   int
	MeanCtrlBits  float64
	DistinctTypes int
	TotalMsgs     int64
}

// MeasureBits runs a mixed workload and reports per-message control sizes
// and the message-type census (row 3 and Theorem 2).
func MeasureBits(alg proto.Algorithm, n, ops int) BitCost {
	r := newRunner(alg, n, 0, 2, transport.FixedDelay(1))
	sched, err := workload.Generate(workload.Spec{
		Seed: 7, Ops: ops, ReadFraction: 0.5,
		Writer: 0, Readers: readers(n), ValueSize: 16,
	})
	if err != nil {
		panic(err)
	}
	var op proto.OpID
	for _, w := range sched {
		op++
		if w.Kind == proto.OpWrite {
			r.net.StartWriteAt(r.sched.Now()+1, w.PID, op, w.Value)
		} else {
			r.net.StartReadAt(r.sched.Now()+1, w.PID, op)
		}
		r.net.Run()
	}
	s := r.col.Snapshot()
	return BitCost{
		MaxCtrlBits:   s.MaxCtrlBits,
		MeanCtrlBits:  s.MeanCtrlBitsPerMsg,
		DistinctTypes: s.DistinctMessageTypes,
		TotalMsgs:     s.TotalMsgs,
	}
}

// MeasureMemory returns a process's local storage in bits after k writes of
// valueSize-byte values (Table 1 row 4), for the maximum across processes.
func MeasureMemory(alg proto.Algorithm, n int, writes []int, valueSize int) map[int]int {
	out := make(map[int]int, len(writes))
	for _, k := range writes {
		r := newRunner(alg, n, 0, 3, transport.FixedDelay(1))
		var op proto.OpID
		for i := 0; i < k; i++ {
			op++
			v := make([]byte, valueSize)
			copy(v, fmt.Sprintf("v%d", i))
			r.net.StartWriteAt(r.sched.Now()+1, 0, op, v)
			r.net.Run()
		}
		max := 0
		for pid := 0; pid < n; pid++ {
			if b := r.net.Proc(pid).LocalMemoryBits(); b > max {
				max = b
			}
		}
		out[k] = max
	}
	return out
}

// TimeCost holds latency measurements in Δ units (Table 1 rows 5-6).
type TimeCost struct {
	Write         float64
	ReadQuiescent float64
	// ReadConcurrent is the latency of a read racing a fresh write — the
	// scenario that exercises the paper's 4Δ worst case.
	ReadConcurrent float64
}

// MeasureTime reports operation latencies in Δ units under delay exactly Δ.
func MeasureTime(alg proto.Algorithm, n int) TimeCost {
	reader := 0
	if n > 1 {
		reader = 1
	}
	// Write latency and quiescent read latency.
	r := newRunner(alg, n, 0, 4, transport.FixedDelay(1))
	r.net.StartWriteAt(0, 0, 1, []byte("v1"))
	r.net.Run()
	wLat := r.mustDone(1)
	start := r.sched.Now() + 5
	r.net.StartReadAt(start, reader, 2)
	r.net.Run()
	qLat := r.mustDone(2) - start

	// Read racing a fresh write from a cold (fully quiescent) state.
	r2 := newRunner(alg, n, 0, 4, transport.FixedDelay(1))
	r2.net.StartWriteAt(0, 0, 1, []byte("v1"))
	r2.net.StartReadAt(0, reader, 2)
	r2.net.Run()
	cLat := r2.mustDone(2)

	return TimeCost{Write: wLat, ReadQuiescent: qLat, ReadConcurrent: cLat}
}

// MixCost summarizes a mixed workload run (experiment E3).
type MixCost struct {
	ReadFraction   float64
	MsgsPerOp      float64
	CtrlBitsPerOp  float64
	DataBytesPerOp float64
}

// MeasureMix runs a read-dominated (or other mix) workload and reports
// per-operation network cost.
func MeasureMix(alg proto.Algorithm, n, ops int, readFraction float64) MixCost {
	r := newRunner(alg, n, 0, 5, transport.FixedDelay(1))
	sched, err := workload.Generate(workload.Spec{
		Seed: 11, Ops: ops, ReadFraction: readFraction,
		Writer: 0, Readers: readers(n), ValueSize: 64,
	})
	if err != nil {
		panic(err)
	}
	var op proto.OpID
	for _, w := range sched {
		op++
		if w.Kind == proto.OpWrite {
			r.net.StartWriteAt(r.sched.Now()+1, w.PID, op, w.Value)
		} else {
			r.net.StartReadAt(r.sched.Now()+1, w.PID, op)
		}
		r.net.Run()
	}
	s := r.col.Snapshot()
	return MixCost{
		ReadFraction:   readFraction,
		MsgsPerOp:      float64(s.TotalMsgs) / float64(ops),
		CtrlBitsPerOp:  float64(s.ControlBits) / float64(ops),
		DataBytesPerOp: float64(s.DataBytes) / float64(ops),
	}
}

// CrashCost reports operation liveness and cost under f crashes (E4).
type CrashCost struct {
	Crashes     int
	WriteDelta  float64
	ReadDelta   float64
	AllComplete bool
}

// MeasureCrash crashes f non-writer processes before a write+read pair and
// reports latencies. f must be at most MaxFaulty(n).
func MeasureCrash(alg proto.Algorithm, n, f int) CrashCost {
	if f > proto.MaxFaulty(n) {
		panic(fmt.Sprintf("eval: %d crashes exceed the t<n/2 budget for n=%d", f, n))
	}
	r := newRunner(alg, n, 0, 6, transport.FixedDelay(1))
	for i := 0; i < f; i++ {
		r.net.Crash(n - 1 - i)
	}
	r.net.StartWriteAt(0, 0, 1, []byte("v1"))
	r.net.Run()
	w := r.mustDone(1)
	start := r.sched.Now() + 5
	r.net.StartReadAt(start, 1, 2)
	r.net.Run()
	rd := r.mustDone(2) - start
	return CrashCost{Crashes: f, WriteDelta: w, ReadDelta: rd, AllComplete: true}
}

func readers(n int) []int {
	var out []int
	for i := 1; i < n; i++ {
		out = append(out, i)
	}
	if len(out) == 0 {
		out = []int{0}
	}
	return out
}
