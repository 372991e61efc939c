// Package regload is the closed-loop load harness for the sharded keyed
// TCP service: it stands up a shards×(procs/shards) grid of shard.Members
// (the exact cmd/regnode production stack over loopback: a transport.Mesh
// quorum group per shard, a client-protocol session server per process),
// drives it through internal/regclient with a configurable number of
// closed-loop clients, and reports ops/sec plus latency histograms.
//
// Closed-loop means each client issues its next operation only after the
// previous one completes — throughput and latency are measured under
// self-limiting load, the regime quorum protocols actually run in (every
// operation is a round trip; there is no open-loop arrival process to
// overrun). cmd/regload is the CLI; BenchmarkTCPRegload feeds the
// BENCH_tcp.json perf trajectory from the same engine.
package regload

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"twobitreg/internal/metrics"
	"twobitreg/internal/proto"
	"twobitreg/internal/regclient"
	"twobitreg/internal/shard"
	"twobitreg/internal/storage"
	"twobitreg/internal/transport"
)

// Spec configures one load run. Validate reports the first problem as a
// typed *SpecError; Run validates internally.
type Spec struct {
	// Procs is the total process count across all shards. Each shard is an
	// independent majority-quorum group of Procs/Shards processes, so a
	// run with dead processes needs every shard's dead count to stay
	// within proto.MaxFaulty(Procs/Shards).
	Procs int
	// Shards is the shard count; Procs must divide evenly across it.
	// 0 means 1 — the unsharded service.
	Shards int
	// Clients is the number of closed-loop client goroutines. Each drives
	// a routing regclient.Client; preference offsets spread the clients
	// over every shard's members.
	Clients int
	// Keys is the key-space size; operations pick keys uniformly and hash
	// placement spreads them over the shards.
	Keys int
	// ReadFrac in [0, 1] is the probability each operation is a read.
	ReadFrac float64
	// Duration bounds the run in wall-clock time; Ops bounds it in total
	// operations. Exactly one must be set (nonzero).
	Duration time.Duration
	Ops      int64
	// ValueSize is the written payload size in bytes (0 = 16).
	ValueSize int
	// Seed drives the clients' read/write and key choice; runs with the
	// same spec issue the same operation mix.
	Seed int64
	// Dead lists global process ids to kill (node stopped, mesh and client
	// server closed) after startup, before load: the dead-peer scenario.
	// Clients fail over to each dead process's live shard siblings.
	Dead []int
	// Restart schedules mid-run kill-and-revive faults (see Restart).
	// Within each shard, dead and restarting processes together must stay
	// a minority, so a quorum survives even if every scheduled downtime
	// overlaps. A victim's pre-crash mesh counters are lost with it;
	// Report.Mesh counts its revived mesh from zero.
	Restart []Restart
}

// Restart schedules one kill-and-revive fault: global process Proc is
// crashed (node stopped, mesh, connections and client server closed
// mid-stream) After into the run and revived Down later (0 = 250ms).
// Revival is a new process on the victim's addresses and stable-storage
// log — regload arms an in-memory log per process whenever restarts are
// scheduled — and nothing else: the mesh handshake shows the peers its new
// incarnation, and both ends of each link reset. Just before the kill
// the harness issues one write through the victim's client port (a key
// placed on its shard); if acknowledged, it must still be in the durable
// log after the crash drops the unsynced tail (Report.LostAckWrites
// counts violations — the zero-lost-acknowledged-writes gate), and after
// revival the process must serve a client-protocol read
// (Report.RestartErrs counts failures).
type Restart struct {
	Proc  int
	After time.Duration
	Down  time.Duration
}

// SpecError reports an invalid Spec field, errors.As-friendly so flag
// layers can render the field name.
type SpecError struct {
	Field  string
	Reason string
}

func (e *SpecError) Error() string {
	return fmt.Sprintf("regload: invalid -%s: %s", e.Field, e.Reason)
}

// shardCount normalizes Spec.Shards (0 means 1).
func (s *Spec) shardCount() int {
	if s.Shards == 0 {
		return 1
	}
	return s.Shards
}

// Validate checks the spec, returning a *SpecError for the first problem.
func (s *Spec) Validate() error {
	fail := func(field, reason string) error { return &SpecError{Field: field, Reason: reason} }
	if s.Procs < 1 || s.Procs > 255 {
		return fail("procs", fmt.Sprintf("need 1..255 processes, got %d", s.Procs))
	}
	shards := s.shardCount()
	if shards < 1 {
		return fail("shards", fmt.Sprintf("need at least 1 shard, got %d", s.Shards))
	}
	if s.Procs%shards != 0 {
		return fail("shards", fmt.Sprintf("%d processes do not divide evenly over %d shards", s.Procs, shards))
	}
	per := s.Procs / shards
	if s.Clients < 1 {
		return fail("clients", fmt.Sprintf("need at least 1 client, got %d", s.Clients))
	}
	if s.Keys < 1 {
		return fail("keys", fmt.Sprintf("need at least 1 key, got %d", s.Keys))
	}
	if s.ReadFrac < 0 || s.ReadFrac > 1 {
		return fail("read-frac", fmt.Sprintf("need a fraction in [0,1], got %g", s.ReadFrac))
	}
	if (s.Duration > 0) == (s.Ops > 0) {
		return fail("duration", "exactly one of -duration and -ops must be positive")
	}
	if s.ValueSize < 0 || s.ValueSize > 1<<20 {
		return fail("value-size", fmt.Sprintf("need 0..1MiB, got %d", s.ValueSize))
	}
	deadPerShard := make([]int, shards)
	seen := make(map[int]bool, len(s.Dead))
	for _, d := range s.Dead {
		if d < 0 || d >= s.Procs {
			return fail("dead", fmt.Sprintf("process %d out of range [0,%d)", d, s.Procs))
		}
		deadPerShard[d/per]++
	}
	for sh, c := range deadPerShard {
		if c > proto.MaxFaulty(per) {
			return fail("dead", fmt.Sprintf(
				"%d dead of shard %d's %d processes breaks its majority quorum (max %d)",
				c, sh, per, proto.MaxFaulty(per)))
		}
	}
	for _, d := range s.Dead {
		if seen[d] {
			return fail("dead", fmt.Sprintf("process %d listed twice", d))
		}
		seen[d] = true
	}
	downPerShard := append([]int(nil), deadPerShard...)
	seenR := make(map[int]bool, len(s.Restart))
	for _, r := range s.Restart {
		if r.Proc < 0 || r.Proc >= s.Procs {
			return fail("restart", fmt.Sprintf("process %d out of range [0,%d)", r.Proc, s.Procs))
		}
		if contains(s.Dead, r.Proc) {
			return fail("restart", fmt.Sprintf("process %d is already dead", r.Proc))
		}
		if seenR[r.Proc] {
			return fail("restart", fmt.Sprintf("process %d listed twice", r.Proc))
		}
		seenR[r.Proc] = true
		downPerShard[r.Proc/per]++
		if downPerShard[r.Proc/per] > proto.MaxFaulty(per) {
			return fail("restart", fmt.Sprintf(
				"shard %d's dead + restarting processes can break its majority quorum (max %d down at once of %d)",
				r.Proc/per, proto.MaxFaulty(per), per))
		}
		if r.After <= 0 {
			return fail("restart", fmt.Sprintf("process %d needs a positive kill offset, got %s", r.Proc, r.After))
		}
		if r.Down < 0 {
			return fail("restart", fmt.Sprintf("process %d has a negative downtime %s", r.Proc, r.Down))
		}
	}
	return nil
}

// Report is the outcome of one load run.
type Report struct {
	Procs    int     `json:"procs"`
	Shards   int     `json:"shards"`
	Clients  int     `json:"clients"`
	Keys     int     `json:"keys"`
	ReadFrac float64 `json:"read_frac"`
	Dead     []int   `json:"dead,omitempty"`
	// Restarted lists the processes that were killed mid-run and came
	// back; RestartErrs counts revivals whose recovery or post-revival
	// read failed, and LostAckWrites counts pre-kill acknowledged writes
	// missing from the victim's durable log after the crash. A healthy
	// run reports both as zero.
	Restarted     []int         `json:"restarted,omitempty"`
	RestartErrs   int64         `json:"restart_errors,omitempty"`
	LostAckWrites int64         `json:"lost_ack_writes,omitempty"`
	Elapsed       time.Duration `json:"elapsed_ns"`
	Ops           int64         `json:"ops"`
	Reads         int64         `json:"reads"`
	Writes        int64         `json:"writes"`
	OpErrors      int64         `json:"op_errors"`
	SendErrs      int64         `json:"send_errors"`
	OpsPerSec     float64       `json:"ops_per_sec"`

	ReadLat  LatencySummary `json:"read_latency"`
	WriteLat LatencySummary `json:"write_latency"`

	// Mesh aggregates the transport counters over every live process
	// across all shards: frames vs batched writes is the
	// syscalls-per-frame figure E-TCP1 tracks.
	Mesh transport.MeshStats `json:"mesh"`

	// readHist/writeHist keep the merged histograms for callers that want
	// more quantiles than the summary carries.
	readHist, writeHist metrics.Histogram
}

// LatencySummary is the JSON-friendly slice of a histogram (nanoseconds).
type LatencySummary struct {
	Count  int64   `json:"count"`
	MeanNs float64 `json:"mean_ns"`
	P50Ns  int64   `json:"p50_ns"`
	P95Ns  int64   `json:"p95_ns"`
	P99Ns  int64   `json:"p99_ns"`
	MaxNs  int64   `json:"max_ns"`
}

func summarize(h *metrics.Histogram) LatencySummary {
	return LatencySummary{
		Count:  h.Count(),
		MeanNs: h.Mean(),
		P50Ns:  h.Quantile(0.50),
		P95Ns:  h.Quantile(0.95),
		P99Ns:  h.Quantile(0.99),
		MaxNs:  h.Max(),
	}
}

// ReadHistogram returns the merged read-latency histogram.
func (r *Report) ReadHistogram() *metrics.Histogram { return &r.readHist }

// WriteHistogram returns the merged write-latency histogram.
func (r *Report) WriteHistogram() *metrics.Histogram { return &r.writeHist }

// String renders the human-readable report.
func (r *Report) String() string {
	s := fmt.Sprintf("regload: n=%d shards=%d clients=%d keys=%d reads=%.0f%%",
		r.Procs, r.Shards, r.Clients, r.Keys, 100*r.ReadFrac)
	if len(r.Dead) > 0 {
		s += fmt.Sprintf(" dead=%v", r.Dead)
	}
	if len(r.Restarted) > 0 || r.RestartErrs > 0 {
		s += fmt.Sprintf("\n  restarts: revived %v (%d errors, %d lost acknowledged writes)",
			r.Restarted, r.RestartErrs, r.LostAckWrites)
	}
	s += fmt.Sprintf("\n  %d ops in %s = %.0f ops/sec (%d reads, %d writes, %d op errors, %d send errors)",
		r.Ops, r.Elapsed.Round(time.Millisecond), r.OpsPerSec, r.Reads, r.Writes, r.OpErrors, r.SendErrs)
	s += fmt.Sprintf("\n  read  latency: %s", r.readHist.Summary())
	s += fmt.Sprintf("\n  write latency: %s", r.writeHist.Summary())
	s += fmt.Sprintf("\n  mesh: %s", r.Mesh)
	return s
}

// keyName renders key index i as the store key (the same namespace the
// sharded smoke and E-SH1 measurements use).
func keyName(i int) string { return fmt.Sprintf("k%04d", i) }

// probeKey derives a key placed on pid's shard, for the restart marker
// write and post-revival read: the suffix walks until the hash lands.
func probeKey(pid, shardIdx, shards int) string {
	for j := 0; ; j++ {
		k := fmt.Sprintf("restart-probe-p%d-%d", pid, j)
		if shard.ShardOfKey(k, shards) == shardIdx {
			return k
		}
	}
}

// Run executes one load run per spec: build the sharded cluster over
// loopback TCP, kill the Dead processes, drive the clients through the
// binary client protocol (with any scheduled Restart faults firing
// mid-load), tear everything down.
func Run(spec Spec) (*Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	h, err := startCluster(spec)
	if err != nil {
		return nil, err
	}
	defer h.lc.Close()
	pool, err := h.clientPool()
	if err != nil {
		return nil, err
	}
	defer closePool(pool)
	// The dead-peer scenario: these processes were reachable at startup
	// (peers may have dialed them) and now crash. Live processes keep
	// (re)trying them; clients fail over to their shard siblings.
	for _, d := range spec.Dead {
		h.kill(d)
	}
	faults := h.scheduleRestarts()
	stats, elapsed := h.runClients(pool)
	faults.wg.Wait() // revivals scheduled past the load window still run
	return h.report(stats, elapsed, faults), nil
}

// harness is the cluster under load: a shard.LocalCluster, its processes
// numbered globally (slot).
type harness struct {
	spec Spec
	per  int
	lc   *shard.LocalCluster
	// logs arms an in-memory log per process when restarts are scheduled,
	// so a victim can come back from its durable state; plain runs skip
	// the logging overhead (the BENCH_tcp trajectory measures the unlogged
	// path).
	logs []*storage.MemLog
	// sendErrs keeps the count of members that have since been killed.
	sendErrs atomic.Int64
}

// startCluster boots the grid on ephemeral loopback ports.
func startCluster(spec Spec) (*harness, error) {
	shards := spec.shardCount()
	h := &harness{spec: spec, per: spec.Procs / shards}
	var logs func(s, i int) storage.StableStorage
	if len(spec.Restart) > 0 {
		h.logs = make([]*storage.MemLog, spec.Procs)
		for i := range h.logs {
			h.logs[i] = storage.NewMemLog()
		}
		logs = func(s, i int) storage.StableStorage { return h.logs[s*h.per+i] }
	}
	var err error
	if h.lc, err = shard.StartLocal(shards, h.per, logs); err != nil {
		return nil, fmt.Errorf("regload: %w", err)
	}
	return h, nil
}

// slot returns process pid's shard and its index within it.
func (h *harness) slot(pid int) (s, i int) { return pid / h.per, pid % h.per }

// member returns process pid, nil if it is down.
func (h *harness) member(pid int) *shard.Member { return h.lc.Member(h.slot(pid)) }

// clientAddr returns process pid's client port.
func (h *harness) clientAddr(pid int) string {
	s, i := h.slot(pid)
	return h.lc.Config.Shards[s].Procs[i].Client
}

// clientPool returns the routing clients: one Client per shard-member
// offset, shared by the client goroutines (goroutine c uses pool[c%per]) —
// sessions are connection-multiplexed, so many goroutines pipelining
// requests over one conn per node is the intended shape.
func (h *harness) clientPool() ([]*regclient.Client, error) {
	pool := make([]*regclient.Client, 0, h.per)
	for j := 0; j < h.per; j++ {
		cl, err := regclient.New(h.lc.Config, j)
		if err != nil {
			closePool(pool)
			return nil, err
		}
		pool = append(pool, cl)
	}
	return pool, nil
}

func closePool(pool []*regclient.Client) {
	for _, cl := range pool {
		cl.Close()
	}
}

// kill crashes one process, keeping its refused-send count.
func (h *harness) kill(pid int) {
	if m := h.member(pid); m != nil {
		h.lc.KillProc(h.slot(pid))
		h.sendErrs.Add(m.SendErrors())
	}
}

// revive restarts a killed process from its durable log and proves it
// serves: one client-protocol read through its own port says it recovered,
// reconnected, and reaches a quorum.
func (h *harness) revive(pid int, probe string) error {
	if err := h.lc.ReviveProc(h.slot(pid)); err != nil {
		return err
	}
	sess, err := regclient.DialNode(h.clientAddr(pid))
	if err != nil {
		return err
	}
	defer sess.Close()
	_, err = sess.Get(probe)
	return err
}

// restartLog is what the scheduled kill-and-revive faults leave behind.
type restartLog struct {
	wg        sync.WaitGroup
	mu        sync.Mutex
	restarted []int
	errs      atomic.Int64
	lostAcks  atomic.Int64
}

// scheduleRestarts arms the kill-and-revive faults. Each victim gets a
// final acknowledged write through its client port just before the kill;
// losing it across the crash is the durability violation the harness
// exists to catch. After revival the process must serve again.
func (h *harness) scheduleRestarts() *restartLog {
	rl := &restartLog{}
	for _, rs := range h.spec.Restart {
		rs := rs
		rl.wg.Add(1)
		go func() {
			defer rl.wg.Done()
			time.Sleep(rs.After)
			probe := probeKey(rs.Proc, rs.Proc/h.per, h.spec.shardCount())
			marker := []byte(fmt.Sprintf("ack-probe-p%d", rs.Proc))
			acked := false
			if sess, err := regclient.DialNode(h.clientAddr(rs.Proc)); err == nil {
				acked = sess.Put(probe, marker) == nil
				sess.Close()
			}
			h.kill(rs.Proc)
			h.logs[rs.Proc].DropUnsynced() // the crash: the unsynced tail vanishes
			if acked && !logContains(h.logs[rs.Proc], marker) {
				rl.lostAcks.Add(1)
			}
			down := rs.Down
			if down == 0 {
				down = 250 * time.Millisecond
			}
			time.Sleep(down)
			if err := h.revive(rs.Proc, probe); err != nil {
				rl.errs.Add(1)
				return
			}
			rl.mu.Lock()
			rl.restarted = append(rl.restarted, rs.Proc)
			rl.mu.Unlock()
		}()
	}
	return rl
}

// clientStats is one closed-loop client's tally. Each client owns its rng
// and histograms; merging at the end keeps the measurement path
// contention-free.
type clientStats struct {
	readLat, writeLat metrics.Histogram
	reads, writes     int64
	errors            int64
}

// runClients drives the closed-loop clients, each through its pooled
// routing client, until the spec's duration or operation budget is spent.
func (h *harness) runClients(pool []*regclient.Client) ([]clientStats, time.Duration) {
	spec := h.spec
	var (
		wg       sync.WaitGroup
		stats    = make([]clientStats, spec.Clients)
		budget   atomic.Int64
		deadline = make(chan struct{})
	)
	budget.Store(spec.Ops) // 0 when duration-bounded: budget check disabled
	valueSize := spec.ValueSize
	if valueSize == 0 {
		valueSize = 16
	}
	payload := make([]byte, valueSize)
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}
	start := time.Now()
	if spec.Duration > 0 {
		timer := time.AfterFunc(spec.Duration, func() { close(deadline) })
		defer timer.Stop()
	}
	for c := 0; c < spec.Clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := &stats[c]
			cl := pool[c%len(pool)]
			rng := rand.New(rand.NewSource(spec.Seed + int64(c)*7919))
			for {
				select {
				case <-deadline:
					return
				default:
				}
				if spec.Ops > 0 && budget.Add(-1) < 0 {
					return
				}
				key := keyName(rng.Intn(spec.Keys))
				if rng.Float64() < spec.ReadFrac {
					t0 := time.Now()
					_, err := cl.Get(key)
					if err != nil {
						st.errors++
						continue
					}
					st.readLat.ObserveDuration(time.Since(t0))
					st.reads++
				} else {
					t0 := time.Now()
					err := cl.Put(key, payload)
					if err != nil {
						st.errors++
						continue
					}
					st.writeLat.ObserveDuration(time.Since(t0))
					st.writes++
				}
			}
		}()
	}
	wg.Wait()
	return stats, time.Since(start)
}

// report merges the clients' tallies, the fault log and the live members'
// transport counters.
func (h *harness) report(stats []clientStats, elapsed time.Duration, faults *restartLog) *Report {
	spec := h.spec
	sort.Ints(faults.restarted)
	rep := &Report{
		Procs:         spec.Procs,
		Shards:        spec.shardCount(),
		Clients:       spec.Clients,
		Keys:          spec.Keys,
		ReadFrac:      spec.ReadFrac,
		Dead:          append([]int(nil), spec.Dead...),
		Restarted:     faults.restarted,
		RestartErrs:   faults.errs.Load(),
		LostAckWrites: faults.lostAcks.Load(),
		Elapsed:       elapsed,
		SendErrs:      h.sendErrs.Load(),
	}
	for c := range stats {
		st := &stats[c]
		rep.readHist.Merge(&st.readLat)
		rep.writeHist.Merge(&st.writeLat)
		rep.Reads += st.reads
		rep.Writes += st.writes
		rep.OpErrors += st.errors
	}
	rep.Ops = rep.Reads + rep.Writes
	if elapsed > 0 {
		rep.OpsPerSec = float64(rep.Ops) / elapsed.Seconds()
	}
	for pid := 0; pid < spec.Procs; pid++ {
		if m := h.member(pid); m != nil {
			rep.Mesh.Add(m.Mesh().Stats())
			rep.SendErrs += m.SendErrors()
		}
	}
	rep.ReadLat = summarize(&rep.readHist)
	rep.WriteLat = summarize(&rep.writeHist)
	return rep
}

// logContains reports whether any durable record's value contains want.
// The keyed store stamps the key into the stored value, so containment,
// not equality, is the right match.
func logContains(log storage.StableStorage, want []byte) bool {
	found := false
	_ = log.Replay(func(r storage.Record) error {
		if bytes.Contains(r.Val, want) {
			found = true
		}
		return nil
	})
	return found
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
