package eval

import (
	"fmt"

	"twobitreg/internal/metrics"
	"twobitreg/internal/proto"
	"twobitreg/internal/transport"
)

// Driver is a stateful simulator harness for benchmarks: it executes one
// operation at a time to quiescence and exposes the metrics collector, so a
// testing.B loop can drive b.N operations over a single instance.
type Driver struct {
	r  *runner
	op proto.OpID
	n  int
}

// NewDriver builds an n-process instance of alg under delay Δ = 1.
func NewDriver(alg proto.Algorithm, n int) *Driver {
	return &Driver{r: newRunner(alg, n, 0, 1, transport.FixedDelay(1)), n: n}
}

// Write performs one write through the writer and runs to quiescence,
// returning the operation latency in Δ units.
func (d *Driver) Write(v []byte) float64 {
	d.op++
	start := d.r.sched.Now() + 1
	d.r.net.StartWriteAt(start, 0, d.op, v)
	d.r.net.Run()
	return d.r.mustDone(d.op) - start
}

// Read performs one read through pid and runs to quiescence, returning the
// latency in Δ units.
func (d *Driver) Read(pid int) float64 {
	d.op++
	start := d.r.sched.Now() + 1
	d.r.net.StartReadAt(start, pid, d.op)
	d.r.net.Run()
	return d.r.mustDone(d.op) - start
}

// WriteConcurrentRead starts a write and a read at the same instant and
// returns the read latency in Δ units — the paper's worst-case read
// scenario.
func (d *Driver) WriteConcurrentRead(v []byte, pid int) float64 {
	d.op += 2
	wOp, rOp := d.op-1, d.op
	start := d.r.sched.Now() + 1
	d.r.net.StartWriteAt(start, 0, wOp, v)
	d.r.net.StartReadAt(start, pid, rOp)
	d.r.net.Run()
	return d.r.mustDone(rOp) - start
}

// Crash marks pid crashed.
func (d *Driver) Crash(pid int) { d.r.net.Crash(pid) }

// Snapshot returns the metrics collected so far.
func (d *Driver) Snapshot() metrics.Snapshot { return d.r.col.Snapshot() }

// ResetMetrics clears the metrics collector.
func (d *Driver) ResetMetrics() { d.r.col.Reset() }

// MemoryBits returns the largest per-process local state across the
// instance.
func (d *Driver) MemoryBits() int {
	max := 0
	for pid := 0; pid < d.n; pid++ {
		if b := d.r.net.Proc(pid).LocalMemoryBits(); b > max {
			max = b
		}
	}
	return max
}

// Value returns a distinct value for the k-th write.
func Value(k int) []byte { return []byte(fmt.Sprintf("v%08d", k)) }
