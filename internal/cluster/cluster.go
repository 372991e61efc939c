// Package cluster runs a register protocol as a real concurrent system: one
// goroutine per process, unbounded in-memory mailboxes between them, optional
// random delivery jitter, crash injection, and a blocking client API.
//
// The discrete-event simulator (internal/transport.SimNet) answers "what does
// the algorithm cost in Δ units"; this package answers "does the
// implementation survive real schedulers" — it is the substrate for
// race-detector stress tests, the linearizability harness, and the examples.
package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"twobitreg/internal/metrics"
	"twobitreg/internal/proto"
)

// Config configures a Cluster.
type Config struct {
	// N is the number of processes; Writer designates the SWMR writer.
	N      int
	Writer int
	// Writers, when non-empty, generalizes Writer to a writer set for
	// multi-writer algorithms: writes are accepted through exactly these
	// processes (validated by proto.ValidateWriters; a typed
	// *proto.WriterSetError reports mistakes at New time). When empty, the
	// writer set is {Writer} — the SWMR configuration. The protocol
	// instances still receive Writer as the designated writer; MWMR
	// algorithms ignore it.
	Writers []int
	// Alg builds the protocol instances.
	Alg proto.Algorithm
	// Collector, if non-nil, sees every sent message and completed op.
	Collector *metrics.Collector
	// MaxJitter, if positive, delays each delivery by a uniform random
	// duration in (0, MaxJitter], exercising non-FIFO channels.
	MaxJitter time.Duration
	// Seed drives the jitter randomness.
	Seed int64
	// OnInvoke/OnComplete, if non-nil, observe client operations at
	// invocation and response time (the linearizability harness attaches
	// its recorder here).
	OnInvoke   func(op proto.OpID, pid int, kind proto.OpKind, v proto.Value)
	OnComplete func(op proto.OpID, pid int, c proto.Completion)
}

// Cluster is a running protocol instance: N KeyedNodes wired mailbox to
// mailbox in memory. All event-loop behaviour is KeyedNode's; what the
// cluster adds lives in the send closures it hands its nodes — the metrics
// tap and the delivery jitter.
type Cluster struct {
	cfg     Config
	writers map[int]bool // the validated writer set
	nodes   []*KeyedNode
	opSeq   atomic.Uint64
	// jitter tracks in-flight jitter deliveries so Stop can wait for them.
	jitter sync.WaitGroup
}

// New starts a cluster per cfg. Callers must Stop it.
func New(cfg Config) (*Cluster, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("cluster: N = %d, need at least 1", cfg.N)
	}
	if cfg.Alg == nil {
		return nil, errors.New("cluster: Alg is required")
	}
	// One validation point for both the legacy single-writer field and the
	// writer set: the effective set must pass proto.ValidateWriters.
	ws := cfg.Writers
	if len(ws) == 0 {
		ws = []int{cfg.Writer}
	}
	if err := proto.ValidateWriters(cfg.N, ws); err != nil {
		return nil, err
	}
	if cfg.Writer < 0 || cfg.Writer >= cfg.N {
		return nil, fmt.Errorf("cluster: writer %d out of range [0,%d)", cfg.Writer, cfg.N)
	}
	c := &Cluster{
		cfg:     cfg,
		writers: make(map[int]bool, len(ws)),
		nodes:   make([]*KeyedNode, cfg.N),
	}
	for _, w := range ws {
		c.writers[w] = true
	}
	// A node only sends once driven, and nothing drives it until New
	// returns, so no send closure reads c.nodes before it is complete.
	for i := range c.nodes {
		c.nodes[i] = NewKeyedNode(i, Sequential(cfg.Alg.New(i, cfg.N, cfg.Writer), ws...), c.sender(i))
	}
	return c, nil
}

// sender returns process from's send closure: tap the collector, then
// enqueue on the destination's mailbox — directly, or after a random delay
// on a tracked goroutine when jitter is configured. A halted destination
// drops the message, which is the crash model.
func (c *Cluster) sender(from int) func(to int, msg proto.Message) {
	// rng is touched only by from's event loop.
	rng := rand.New(rand.NewSource(c.cfg.Seed + int64(from)*7919))
	return func(to int, msg proto.Message) {
		if c.cfg.Collector != nil {
			c.cfg.Collector.OnSend(msg)
		}
		if c.cfg.MaxJitter <= 0 {
			c.nodes[to].Deliver(from, msg)
			return
		}
		d := time.Duration(rng.Int63n(int64(c.cfg.MaxJitter))) + 1
		c.jitter.Add(1)
		go func() {
			defer c.jitter.Done()
			time.Sleep(d)
			c.nodes[to].Deliver(from, msg)
		}()
	}
}

// N returns the number of processes.
func (c *Cluster) N() int { return c.cfg.N }

// Writer returns the writer's process index (the single SWMR writer, or the
// Config.Writer field of a multi-writer cluster).
func (c *Cluster) Writer() int { return c.cfg.Writer }

// Writers returns the cluster's writer set, sorted ascending.
func (c *Cluster) Writers() []int {
	out := make([]int, 0, len(c.writers))
	for w := range c.writers {
		out = append(out, w)
	}
	sort.Ints(out)
	return out
}

// IsWriter reports whether writes are accepted through process pid.
func (c *Cluster) IsWriter(pid int) bool { return c.writers[pid] }

// Handle is a client bound to one process of the cluster — the per-writer
// (and per-reader) client object multi-writer harnesses hand to their
// workload goroutines.
type Handle struct {
	c   *Cluster
	pid int
}

// Handle returns a client bound to process pid. It panics on a pid outside
// 0..N-1.
func (c *Cluster) Handle(pid int) *Handle {
	if err := c.checkPID(pid); err != nil {
		panic(err)
	}
	return &Handle{c: c, pid: pid}
}

// checkPID reports a pid outside 0..N-1, naming the valid range.
func (c *Cluster) checkPID(pid int) error {
	if pid < 0 || pid >= c.cfg.N {
		return fmt.Errorf("cluster: unknown process %d (valid: 0..%d)", pid, c.cfg.N-1)
	}
	return nil
}

// WriterHandles returns one client handle per member of the writer set,
// sorted by process index.
func (c *Cluster) WriterHandles() []*Handle {
	ws := c.Writers()
	out := make([]*Handle, len(ws))
	for i, w := range ws {
		out[i] = c.Handle(w)
	}
	return out
}

// PID returns the process this handle is bound to.
func (h *Handle) PID() int { return h.pid }

// Write performs a blocking write through the handle's process.
func (h *Handle) Write(v proto.Value) error { return h.c.Write(h.pid, v) }

// Read performs a blocking read through the handle's process.
func (h *Handle) Read() (proto.Value, error) { return h.c.Read(h.pid) }

// Stop shuts every node down and waits for all goroutines (including
// in-flight jitter deliveries) to exit. Pending operations receive
// ErrStopped. Stop is idempotent.
func (c *Cluster) Stop() {
	for _, nd := range c.nodes {
		nd.Stop()
	}
	// Only event loops start jitter deliveries, and they have all exited.
	c.jitter.Wait()
}

// Crash marks pid crashed: it processes nothing further, its pending and
// future operations fail with ErrCrashed. Idempotent. It panics on a pid
// outside 0..N-1.
func (c *Cluster) Crash(pid int) {
	if err := c.checkPID(pid); err != nil {
		panic(err)
	}
	c.nodes[pid].Crash()
}

// Write performs a blocking write through process pid, which must belong to
// the cluster's writer set (ErrNotWriter otherwise).
func (c *Cluster) Write(pid int, v proto.Value) error {
	_, err := c.invoke(pid, proto.OpWrite, v)
	return err
}

// Read performs a blocking read through process pid.
func (c *Cluster) Read(pid int) (proto.Value, error) {
	comp, err := c.invoke(pid, proto.OpRead, nil)
	return comp.Value, err
}

func (c *Cluster) invoke(pid int, kind proto.OpKind, v proto.Value) (proto.Completion, error) {
	if err := c.checkPID(pid); err != nil {
		return proto.Completion{}, err
	}
	op := proto.OpID(c.opSeq.Add(1))
	if c.cfg.OnInvoke != nil {
		c.cfg.OnInvoke(op, pid, kind, v)
	}
	start := time.Now()
	// The register has no name; Sequential ignores the key.
	comp, err := c.nodes[pid].invoke(op, "", kind, v)
	if err != nil {
		return proto.Completion{}, err
	}
	if c.cfg.OnComplete != nil {
		c.cfg.OnComplete(op, pid, comp)
	}
	if c.cfg.Collector != nil {
		c.cfg.Collector.OnOp(kind, time.Since(start).Seconds(), comp.Rounds)
	}
	return comp, nil
}
