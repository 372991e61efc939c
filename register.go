package twobitreg

import (
	"time"

	"twobitreg/internal/cluster"
	"twobitreg/internal/core"
	"twobitreg/internal/metrics"
)

// Errors returned by Register operations.
var (
	// ErrCrashed reports an operation on a crashed process.
	ErrCrashed = cluster.ErrCrashed
	// ErrStopped reports an operation on a stopped register.
	ErrStopped = cluster.ErrStopped
)

type options struct {
	initial []byte
	jitter  time.Duration
}

// Option configures Start.
type Option func(*options)

// WithInitial sets the register's initial value v0 (default nil).
func WithInitial(v []byte) Option {
	return func(o *options) { o.initial = append([]byte(nil), v...) }
}

// WithJitter delays each message delivery by a random duration up to d,
// exercising the protocol's tolerance to non-FIFO channels. Default: no
// artificial delay. The jitter randomness is seeded with 1.
func WithJitter(d time.Duration) Option {
	return func(o *options) { o.jitter = d }
}

// Register is a running n-process two-bit atomic register. Process 0 is the
// writer; every process serves reads. All methods are safe for concurrent
// use; operations issued through the same process are serialized, matching
// the paper's sequential-process model.
type Register struct {
	c   *cluster.Cluster
	col *metrics.Collector
}

// Start launches an n-process register (n >= 1); the caller must Stop it.
func Start(n int, opts ...Option) (*Register, error) {
	var o options
	for _, op := range opts {
		op(&o)
	}
	col := &metrics.Collector{}
	c, err := cluster.New(cluster.Config{
		N:         n,
		Writer:    0,
		Alg:       core.Algorithm(core.WithInitial(o.initial)),
		Collector: col,
		MaxJitter: o.jitter,
		Seed:      1,
	})
	if err != nil {
		return nil, err
	}
	return &Register{c: c, col: col}, nil
}

// Write stores v in the register via the writer process. It blocks until a
// majority of processes provably hold v.
func (r *Register) Write(v []byte) error {
	return r.c.Write(r.c.Writer(), v)
}

// Read returns the register's value as seen through process pid. A pid
// outside 0..N-1 is an error.
func (r *Register) Read(pid int) ([]byte, error) {
	return r.c.Read(pid)
}

// Crash stops process pid (crash-stop). The register remains live while
// fewer than half the processes have crashed. It panics on a pid outside
// 0..N-1.
func (r *Register) Crash(pid int) { r.c.Crash(pid) }

// N returns the number of processes.
func (r *Register) N() int { return r.c.N() }

// Writer returns the writer's process index (always 0).
func (r *Register) Writer() int { return r.c.Writer() }

// Stats returns a snapshot of message and operation counters.
func (r *Register) Stats() metrics.Snapshot { return r.col.Snapshot() }

// Stop shuts the register down, unblocking pending operations with
// ErrStopped. Idempotent.
func (r *Register) Stop() { r.c.Stop() }
