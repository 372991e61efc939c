// Package explore is an adversarial schedule-exploration engine for the
// register protocols in this repository.
//
// The paper's atomicity theorem quantifies over every asynchronous schedule
// with a crashing minority, but a uniform-random scenario runner samples a
// vanishingly thin slice of that space. This package generates the hostile
// slices systematically: a family of adversary strategies (per-link
// asymmetric delays, targeted quorum-slowing, writer/reader phase races,
// burst reordering, crash-at-protocol-phase triggers, seeded crash-restart
// faults replayed from stable storage, and PCT-style
// random-priority scheduling — see StrategyNames and the per-strategy docs
// in strategies.go) layered on the deterministic simulator (sim.Scheduler)
// and the transport delay hooks, driving every registered algorithm and
// judging each run with the linearizability checkers and, for the two-bit
// register, the proof invariants. Keyed-store runs (what regnode serves)
// deliver every message as the wire codec decodes it, and a frame wire
// refuses fails the run.
//
// # Multi-writer workloads
//
// Schedules with Writers >= 2 run true multi-writer workloads against
// MWMR-capable algorithms (MWMRAlgorithmNames): pids 0..Writers-1 issue
// concurrent writer streams with per-writer tagged distinct values, every
// client process reads (all of them unless Schedule.Clients says fewer), and
// the history is judged by the near-linear
// Gibbons–Korach cluster checker (check.CheckMWMR) instead of the paper's
// single-writer characterisation — the exhaustive Wing–Gong search remains
// the differential oracle on small histories.
//
// # Replay tokens
//
// Every run is described completely by a Schedule — algorithm, strategy,
// seed, and sizes — which serializes to a one-line colon-separated token of
// 8 to 12 fields:
//
//	xb1:<alg>:<strategy>:<seed>:<n>:<ops>:<readfrac>:<crashes>[:<writers>[:<pct>[:<skew>[:<clients>]]]]
//
// The fields, in order:
//
//  1. version   — always "xb1" (tokenVersion). Bumped whenever a change
//     alters what a descriptor reproduces; an old token must
//     fail to parse rather than silently replay a different run.
//  2. alg       — algorithm or mutant name (AlgorithmNames, MutantNames).
//  3. strategy  — adversary name (StrategyNames).
//  4. seed      — int64 driving every random choice: the workload, the
//     adversary's delay draws, crash placement, tie-breaking.
//     Decorrelated per consumer by the seedSalt* constants,
//     which are part of the token-version contract.
//  5. n         — process count; process 0 is the (first) writer.
//  6. ops       — total client operations in the workload.
//  7. readfrac  — read fraction in [0,1], %g-formatted.
//  8. crashes   — processes the adversary crashes (capped at MaxFaulty(n)).
//  9. writers   — OPTIONAL. Concurrent writer processes (pids
//     0..writers-1). 0 and 1 both mean the classic
//     single-writer workload; such schedules serialize to the
//     8-field form (Run canonicalizes Writers 1 -> 0), so
//     historical tokens stay byte-identical. A bare 9-field
//     token therefore requires writers >= 2.
//  10. pct       — OPTIONAL. Priority change points of the d-bounded PCT
//     adversary (pct strategy only). A bare 10-field token
//     requires pct >= 1; in that form a single-writer schedule
//     carries the canonical writer count 1 in field 9. pct = 0
//     keeps the legacy per-event random tie draw.
//  11. skew      — OPTIONAL. Hot-writer weight: writer 0 issues skew times
//     each peer's write rate. Requires writers >= 2 and
//     skew >= 2 (0 and 1 are the balanced draw and serialize
//     without the field); in the 11-field form the pct column
//     rides along, possibly as its default 0, so skew lands in
//     a fixed position.
//  12. clients   — OPTIONAL. Processes that invoke operations (pids
//     0..clients-1; the rest only relay, and may still crash).
//     Requires writers <= clients <= n and clients >= 1; 0 (and
//     clients = n, which Run canonicalizes) means every process
//     and serializes without the field. In the 12-field form the
//     writers, pct and skew columns ride along as their defaults
//     (1, 0, 0) where unused.
//

// Worked example:
//
//	xb1:regmap-mwmr:slowquorum:42:5:60:0.9:0:3:0:10
//
// replays the keyed store under the quorum-slowing adversary: seed 42,
// 5 processes, 60 operations at 90% reads, no crashes, 3 concurrent
// writers, legacy tie-breaking (pct 0, present only to position the skew),
// and a 10:1 hot-writer skew. A single-writer run of Figure 1 is the
// 8-field form, e.g. xb1:twobit:race:7:5:30:0.6:1.
//
// Failures reproduce byte for byte from their token:
//
//	go test ./internal/explore -run TestReplay -replay=xb1:twobit:slowquorum:7:5:30:0.6:1
//
// and shrink by bisecting the descriptor (Shrink), not the trace: candidate
// schedules with fewer operations, processes, or crashes are re-run and kept
// while they still fail. Result carries derived per-kind means (rounds and
// virtual-time latency per operation) alongside the judged history; they
// replay deterministically but are not part of the frozen fingerprint byte
// stream.
//
// # Parallel sweeps
//
// A sweep's schedules are fully independent — each run builds its own
// processes, simulator, and RNGs from its descriptor alone — so Sweep
// shards them over SweepSpec.Workers goroutines (a worker pool over the
// canonical enumeration order: rounds outermost, then algorithms, then
// strategies). Results merge strictly by enumeration index, never by
// completion order, so the SweepResult — counts, failure list, every
// token and fingerprint — is byte-identical at any worker count; workers
// buy wall-clock time only. StopEarly sharding is cooperative: the first
// failure lowers a shared cutoff and later-indexed in-flight runs are
// discarded, which again keeps the reported result equal to the
// sequential one. The per-schedule hot path allocates nothing per
// delivery (pooled events, reused Effects.Sends scratch), so sched/s
// scales with cores rather than with the collector.
//
// # Detection power
//
// The explorer's teeth are validated by mutation testing: the registry
// carries deliberately broken protocol variants (MutantNames — a write that
// acknowledges before its quorum, a reader-side PROCEED that skips the
// freshness wait, a stale read cache), and mutation_test.go asserts each is
// caught within a fixed schedule budget.
package explore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"twobitreg/internal/check"
	"twobitreg/internal/core"
	"twobitreg/internal/metrics"
	"twobitreg/internal/proto"
	"twobitreg/internal/regmap"
	"twobitreg/internal/sim"
	"twobitreg/internal/storage"
	"twobitreg/internal/transport"
	"twobitreg/internal/wire"
	"twobitreg/internal/workload"
)

// Seed salts decorrelate the random streams a run derives from its one
// descriptor seed. Changing any of them changes what every token replays, so
// they are part of the token-version contract (see tokenVersion).
const (
	seedSaltStrategy = 0x5712a7e6
	seedSaltPump     = 0x0070c4b1
	seedSaltCrash    = 0x0000c4a5
	seedSaltTies     = 0x00007133
	seedSaltPCT      = 0x0000d9c7
)

// eventLimit is the runaway valve: a correct run quiesces far below it, so
// exhausting it is reported as a liveness failure (Result.Truncated).
const eventLimit = 2_000_000

// flushWindow is the virtual-time coalescing window granted to keyed-store
// runs (transport.WithFlushWindow): half the unit Δ, so frames produced by
// deliveries landing close together share one cross-key multi-frame
// without reordering across whole delivery rounds.
const flushWindow = 0.5

// maxCrossCheckOps bounds the histories cross-validated against the
// exhaustive Wing–Gong checker; beyond it only the linear-time SWMR oracle
// runs.
const maxCrossCheckOps = 20

// Result is the judged outcome of one explored schedule. The three
// *Violation fields and Truncated are empty/false for a clean run.
type Result struct {
	Schedule Schedule `json:"schedule"`
	Token    string   `json:"token"`
	// Completed and Pending count operations that terminated and that were
	// invoked but cut off (e.g. by a crash).
	Completed int `json:"completed"`
	Pending   int `json:"pending"`
	// Events, Msgs and EndTime describe the run's extent: simulator events
	// executed, protocol messages sent, and the final virtual time.
	// Entries counts the logical protocol entries those messages carried
	// (batched lane frames and cross-key multi-frames carry several;
	// Entries > Msgs is the signature of coalescing engaging).
	Events  int64   `json:"events"`
	Msgs    int64   `json:"msgs"`
	Entries int64   `json:"entries,omitempty"`
	EndTime float64 `json:"end_time"`
	// Truncated reports that the run hit the event limit without
	// quiescing — a liveness failure.
	Truncated bool `json:"truncated,omitempty"`
	// Stalled counts operations that were invoked by a process that never
	// crashed yet did not complete by quiescence. With a crashed minority
	// the protocols guarantee termination of every operation on a live
	// process, so any such operation is a liveness violation (this is how
	// a torn lane batch — mut-lane-batch — surfaces: the dominated write's
	// completion quorum can never fill).
	Stalled int `json:"stalled,omitempty"`
	// WriterProcs counts the distinct processes that invoked at least one
	// write, and WriteOverlaps the pairs of writes from different processes
	// that overlapped in real time — the evidence that a multi-writer
	// schedule actually interleaved its writer streams.
	WriterProcs   int `json:"writer_procs,omitempty"`
	WriteOverlaps int `json:"write_overlaps,omitempty"`
	// Invariant is the first proof-invariant violation (two-bit register
	// runs only), failed recovery, or keyed-store frame that does not cross
	// the wire codec.
	Invariant string `json:"invariant_violation,omitempty"`
	// Checker names the fast oracle that judged the history (see
	// check.For), and Atomicity its verdict.
	Checker   string `json:"checker,omitempty"`
	Atomicity string `json:"atomicity_violation,omitempty"`
	// CrossCheck reports a disagreement between the SWMR oracle and the
	// exhaustive linearizability search on a small history — a checker bug,
	// whichever way it points.
	CrossCheck string `json:"crosscheck_violation,omitempty"`
	// ReadRounds and WriteRounds are the mean protocol rounds per completed
	// operation (see proto.Completion.Rounds: phases entered, parked or
	// not), and ReadLatency/WriteLatency the mean virtual-time latency in Δ
	// units from invocation to completion. All four are derived from the
	// recorded history, so they are exactly as deterministic as the
	// fingerprint — but they are NOT hashed into it (the fingerprint byte
	// stream is frozen; see fingerprint).
	ReadRounds   float64 `json:"read_rounds,omitempty"`
	WriteRounds  float64 `json:"write_rounds,omitempty"`
	ReadLatency  float64 `json:"read_latency,omitempty"`
	WriteLatency float64 `json:"write_latency,omitempty"`
	// Fingerprint is a stable hash of the recorded history and run extent;
	// equal descriptors must reproduce equal fingerprints.
	Fingerprint string `json:"fingerprint"`
}

// Failed reports whether the run violated anything the explorer checks.
func (r Result) Failed() bool {
	return r.Truncated || r.Stalled > 0 || r.Invariant != "" || r.Atomicity != "" || r.CrossCheck != ""
}

// Violation returns a human-readable description of the first failure, or
// "" for a clean run.
func (r Result) Violation() string {
	switch {
	case r.Invariant != "":
		return "invariant: " + r.Invariant
	case r.Atomicity != "":
		return "atomicity: " + r.Atomicity
	case r.CrossCheck != "":
		return "crosscheck: " + r.CrossCheck
	case r.Truncated:
		return fmt.Sprintf("liveness: run truncated after %d events", r.Events)
	case r.Stalled > 0:
		return fmt.Sprintf("liveness: %d operation(s) stalled on live processes at quiescence", r.Stalled)
	}
	return ""
}

// Run executes the schedule described by s and judges it. The returned error
// covers descriptor problems only (unknown names, bad sizes); protocol
// failures are reported inside the Result.
func Run(s Schedule) (Result, error) {
	if s.Writers == 1 {
		s.Writers = 0 // canonical single-writer form, token-compatible
	}
	if s.Skew == 1 {
		s.Skew = 0 // canonical balanced form, token-compatible
	}
	if s.Clients == s.N {
		s.Clients = 0 // canonical all-clients form, token-compatible
	}
	if err := s.validate(); err != nil {
		return Result{}, err
	}
	alg, ok := ByName(s.Alg)
	if !ok {
		return Result{}, fmt.Errorf("explore: unknown algorithm %q (have %v + mutants %v)",
			s.Alg, AlgorithmNames(), MutantNames())
	}
	mwmr := s.Writers >= 2
	if mwmr && !MWMRCapable(s.Alg) {
		return Result{}, fmt.Errorf("explore: algorithm %q is single-writer; %d-writer schedules need one of %v",
			s.Alg, s.Writers, MWMRAlgorithmNames())
	}
	strat, ok := strategyByName(s.Strategy)
	if !ok {
		return Result{}, fmt.Errorf("explore: unknown strategy %q (have %v)", s.Strategy, StrategyNames())
	}
	if maxF := proto.MaxFaulty(s.N); s.Crashes > maxF {
		s.Crashes = maxF
	}

	sched := sim.New(s.Seed)
	// Tie-breaking adversary: with a positive PCT depth the pct strategy
	// runs the true d-bounded PCT engine (per-process priorities plus
	// seeded change points, attached below as a delivery-priority hook);
	// otherwise the legacy per-event random tie draw applies, keeping
	// historical pct tokens byte-identical.
	var pct *pctEngine
	if strat.ties {
		if s.PCT > 0 {
			horizon := int64(s.Ops) * int64(s.N) * 4
			pct = newPCTEngine(s.N, s.PCT, horizon, rand.New(rand.NewSource(s.Seed^seedSaltPCT)))
		} else {
			sched.RandomizeTies(s.Seed ^ seedSaltTies)
		}
	}
	stratRng := rand.New(rand.NewSource(s.Seed ^ seedSaltStrategy))
	pumpRng := rand.New(rand.NewSource(s.Seed ^ seedSaltPump))
	crashRng := rand.New(rand.NewSource(s.Seed ^ seedSaltCrash))

	procs := make([]proto.Process, s.N)
	var coreProcs []*core.Proc
	var mwProcs []*core.MWProc
	var keyedProcs []*regmap.KeyedProc
	for i := range procs {
		p := alg.New(i, s.N, 0)
		procs[i] = p
		if cp, ok := p.(*core.Proc); ok {
			coreProcs = append(coreProcs, cp)
		}
		if mp, ok := p.(*core.MWProc); ok {
			mwProcs = append(mwProcs, mp)
		}
		if kp, ok := p.(*regmap.KeyedProc); ok {
			keyedProcs = append(keyedProcs, kp)
		}
	}

	// Crash-restart runs arm stable storage — the served FileWAL, on an
	// in-memory file — on every process before any message flows. An
	// algorithm without recovery support (every SWMR register: Figure 1 is
	// crash-stop) degrades to plain crash-stop: victims die at the same
	// seeded phase and stay down.
	restartable := strat.restart
	var logs []*storage.FileWAL
	if strat.restart {
		for _, p := range procs {
			if _, ok := p.(storage.Recoverable); !ok {
				restartable = false
				break
			}
		}
		if restartable {
			logs = make([]*storage.FileWAL, s.N)
			for i, p := range procs {
				logs[i] = storage.NewMemLog()
				p.(storage.Recoverable).AttachStorage(logs[i])
			}
		}
	}

	res := Result{Schedule: s, Token: s.Token()}

	// Single-writer schedules keep the original derivation byte for byte so
	// historical tokens replay unchanged; multi-writer schedules make pids
	// 0..Writers-1 concurrent writer streams and let every client read.
	// Processes from Clients up invoke nothing: they relay, and may crash.
	clients := s.Clients
	if clients == 0 {
		clients = s.N
	}
	wspec := workload.Spec{
		Seed: s.Seed, Ops: s.Ops, ReadFraction: s.ReadFrac,
		Writer: 0, Readers: readers(clients), ValueSize: 8,
	}
	if mwmr {
		wspec.Writers = pids(s.Writers)
		wspec.Readers = pids(clients)
		if err := proto.ValidateWriters(s.N, wspec.Writers); err != nil {
			return Result{}, err
		}
		if s.Skew > 1 {
			// Hot-writer skew: writer 0 carries Skew times each peer's rate.
			ww := make([]float64, s.Writers)
			ww[0] = float64(s.Skew)
			for i := 1; i < s.Writers; i++ {
				ww[i] = 1
			}
			wspec.WriterWeights = ww
		}
	}
	ops, err := workload.Generate(wspec)
	if err != nil {
		return Result{}, err
	}

	// Per-process operation queues, pumped by completions: the next
	// operation on a process starts one adversary-chosen gap after its
	// previous one finishes, which keeps processes sequential while letting
	// different processes overlap as tightly as the strategy wants.
	type opInfo struct {
		pid     int
		kind    proto.OpKind
		val     proto.Value
		inv     float64
		invoked bool
	}
	infos := make([]opInfo, len(ops))
	queues := make([][]proto.OpID, s.N)
	for i, w := range ops {
		infos[i] = opInfo{pid: w.PID, kind: w.Kind, val: w.Value}
		queues[w.PID] = append(queues[w.PID], proto.OpID(i+1))
	}
	next := make([]int, s.N)
	type completion struct {
		at     float64
		val    proto.Value
		rounds int
	}
	completions := make(map[proto.OpID]completion)

	col := &metrics.Collector{}
	var net *transport.SimNet
	var inject func(pid int)
	// fireArmed[pid] marks a scheduled-but-not-yet-fired invocation, so a
	// revival knows whether its re-kick would double-pump the (sequential)
	// operation stream.
	fireArmed := make([]bool, s.N)
	inject = func(pid int) {
		if next[pid] >= len(queues[pid]) || net.Crashed(pid) {
			return
		}
		id := queues[pid][next[pid]]
		next[pid]++
		fireArmed[pid] = true
		fire := func() {
			fireArmed[pid] = false
			if net.Crashed(pid) {
				return // the op is never invoked; the queue stalls
			}
			info := &infos[id-1]
			info.inv = sched.Now()
			info.invoked = true
			if info.kind == proto.OpWrite {
				net.StartWrite(pid, id, info.val)
			} else {
				net.StartRead(pid, id)
			}
		}
		gap := strat.gap(pumpRng)
		if pct != nil {
			sched.AtTie(sched.Now()+gap, pct.current(pid), fire)
		} else {
			sched.After(gap, fire)
		}
	}

	// Crash plan: victims are drawn from processes 1..N-1 (in multi-writer
	// runs that may include writers, leaving pending writes the checker
	// must reason about), except under restart strategies with a
	// recoverable algorithm, which draw from ALL pids — revival keeps the
	// run live even when the writer dies. A non-recoverable algorithm
	// degrades to crash-stop and keeps the crash-stop pool: permanently
	// killing the writer would gut the workload, not test the protocol.
	// crashphase (and crashrestart) trips a victim on its k-th message
	// delivery, crashwrite on its k-th PROCEED delivery (preferring writer
	// victims: a writer's PROCEED count is its freshness-round progress,
	// so the crash lands at a freshness-round/append boundary), and every
	// other strategy on the k-th completed operation anywhere in the
	// system — all are schedule-relative, so crashes land at protocol
	// phases rather than at arbitrary wall-clock instants.
	crashes := s.Crashes
	if crashes > s.N-1 {
		crashes = s.N - 1
	}
	victims := make(map[int]int)         // victim pid -> trigger count
	reviveDelay := make(map[int]float64) // restart strategies: victim pid -> downtime
	if crashes > 0 {
		var pool []int
		switch {
		case restartable:
			// Restart victims come from ALL pids: revival keeps the run
			// live even when the writer dies, and a revived writer's
			// recovered-then-reused state is exactly where durability bugs
			// hide (a reader victim is re-fed by its peers' backlogs and
			// masks an empty log).
			pool = crashRng.Perm(s.N)
		case strat.proceedCrash && s.Writers >= 2:
			// Writers first (the padded-append window), then the rest.
			for _, i := range crashRng.Perm(s.Writers - 1) {
				pool = append(pool, 1+i)
			}
			for _, i := range crashRng.Perm(s.N - s.Writers) {
				pool = append(pool, s.Writers+i)
			}
		default:
			for _, i := range crashRng.Perm(s.N - 1) {
				pool = append(pool, 1+i)
			}
		}
		for c := 0; c < crashes; c++ {
			pid := pool[c]
			switch {
			case strat.phaseCrash:
				victims[pid] = 1 + crashRng.Intn(6*s.N)
			case strat.proceedCrash:
				victims[pid] = 1 + crashRng.Intn(4*s.N)
			default:
				victims[pid] = 1 + crashRng.Intn(max(1, s.Ops))
			}
			if restartable {
				// Downtime past the strategy's max delay: the fence drops
				// the dead incarnation's traffic, not live catch-up.
				reviveDelay[pid] = 2 + 8*crashRng.Float64()
			}
		}
	}

	// Crash-restart bookkeeping: crashAt records each victim's crash
	// instant so the liveness judgment can excuse exactly the operations
	// the old incarnation took to its grave, and revive is the seeded
	// restart itself — reopen the log (its pending frame is lost), replay
	// it into a fresh process, swap it into the transport and the
	// invariant probes, run the bilateral PeerRestarted reset with every
	// live peer, and re-kick the victim's operation stream.
	everCrashed := make([]bool, s.N)
	crashAt := make([]float64, s.N)
	var revive func(pid int)
	if restartable {
		revive = func(pid int) {
			fresh := alg.New(pid, s.N, 0)
			err := logs[pid].Reopen()
			if err == nil {
				err = fresh.(storage.Recoverable).Recover(logs[pid])
			}
			if err != nil {
				if res.Invariant == "" {
					res.Invariant = fmt.Sprintf("recovery of p%d failed: %v", pid, err)
				}
				return
			}
			procs[pid] = fresh
			switch p := fresh.(type) {
			case *core.MWProc:
				if len(mwProcs) == s.N {
					mwProcs[pid] = p
				}
			case *regmap.KeyedProc:
				if len(keyedProcs) == s.N {
					keyedProcs[pid] = p
				}
			}
			net.Revive(pid, fresh)
			for j := 0; j < s.N; j++ {
				if j == pid || net.Crashed(j) {
					continue
				}
				peer := j
				net.Step(pid, func(p proto.Process) proto.Effects {
					return p.(storage.Recoverable).PeerRestarted(peer)
				})
				net.Step(peer, func(p proto.Process) proto.Effects {
					return p.(storage.Recoverable).PeerRestarted(pid)
				})
			}
			// Restart the victim's operation stream — unless an invocation
			// scheduled before the crash is still pending (it will fire on
			// the fresh process; injecting too would double-pump the
			// sequential stream).
			if !fireArmed[pid] {
				inject(pid)
			}
		}
	}

	completedCount := 0
	opts := []transport.Option{
		transport.WithDelay(strat.delay(s.N, stratRng)),
		transport.WithCollector(col),
	}
	if pct != nil {
		opts = append(opts, transport.WithTiePriority(pct.priority))
	}
	opts = append(opts,
		transport.WithCompletion(func(pid int, c proto.Completion, at float64) {
			completions[c.Op] = completion{at, c.Value, c.Rounds}
			completedCount++
			if !strat.phaseCrash && !strat.proceedCrash {
				for victim, trig := range victims {
					if completedCount == trig {
						net.Crash(victim)
					}
				}
			}
			inject(pid)
		}),
	)
	// One delivery hook. Under a phase-crash strategy it trips each victim
	// on its k-th counted delivery; for a keyed store (exactly what regnode
	// serves) it hands every recipient the frame as wire decodes it, so the
	// schedule runs the shipped codec. A frame wire refuses breaks the run
	// the way a proof invariant does.
	phaseCrash := (strat.phaseCrash || strat.proceedCrash) && len(victims) > 0
	ka, keyed := alg.(keyedAlgorithm)
	if phaseCrash || keyed {
		delivered := make([]int, s.N)
		var frame []byte
		opts = append(opts, transport.WithDeliveryObserver(func(from, to int, msg proto.Message, _ float64) proto.Message {
			if phaseCrash && (!strat.proceedCrash || isQuorumAck(msg)) {
				delivered[to]++
				if trig, ok := victims[to]; ok && delivered[to] == trig {
					// Crashing on the delivery drops the acknowledgement
					// itself, so a crashwrite victim dies just before acting
					// on it — for the two-bit registers, the
					// freshness-round/append boundary.
					net.Crash(to)
					if revive != nil {
						everCrashed[to] = true
						crashAt[to] = sched.Now()
						pid := to
						sched.After(reviveDelay[pid], func() { revive(pid) })
					}
					return msg
				}
			}
			if !keyed {
				return msg
			}
			var err error
			if frame, err = wire.AppendEncode(frame[:0], msg); err == nil {
				var got proto.Message
				if got, err = wire.Decode(frame); err == nil {
					return got
				}
			}
			if res.Invariant == "" {
				res.Invariant = fmt.Sprintf("%s %d->%d does not cross wire: %v", msg.TypeName(), from, to, err)
			}
			return msg
		}))
	}
	// The invariant probes run after every delivery; each hook keeps one
	// checker so the probe scratch amortizes across the run.
	if len(coreProcs) == s.N {
		var ic core.InvariantChecker
		opts = append(opts, transport.WithPostDelivery(func() {
			if res.Invariant == "" {
				if err := ic.CheckSWMR(coreProcs); err != nil {
					res.Invariant = err.Error()
				}
			}
		}))
	} else if len(mwProcs) == s.N {
		// The multi-writer two-bit register: the same proof invariants,
		// lane by lane.
		var ic core.InvariantChecker
		opts = append(opts, transport.WithPostDelivery(func() {
			if res.Invariant == "" {
				if err := ic.CheckMWMR(mwProcs); err != nil {
					res.Invariant = err.Error()
				}
			}
		}))
	} else if len(keyedProcs) == s.N {
		// The keyed store: the multi-writer lane invariants, key by key,
		// plus the flush window that lets its cross-key coalescer batch
		// frames landing within half a Δ of each other.
		var kc regmap.KeyedInvariantChecker
		opts = append(opts, transport.WithFlushWindow(flushWindow))
		opts = append(opts, transport.WithPostDelivery(func() {
			if res.Invariant == "" {
				if err := kc.Check(keyedProcs); err != nil {
					res.Invariant = err.Error()
				}
			}
		}))
	}
	net = transport.NewSimNet(sched, procs, opts...)

	for pid := 0; pid < s.N; pid++ {
		inject(pid)
	}

	// A run that broke a proof invariant is already judged and stops there:
	// corrupted lane state need not quiesce (one duplicated index shifts a
	// link's count for good, after which every echo mints a new index), and
	// such a run would otherwise grind to the event limit.
	for res.Events < eventLimit && res.Invariant == "" && sched.Step() {
		res.Events++
	}
	res.Truncated = res.Invariant == "" && sched.Pending() > 0
	res.EndTime = sched.Now()
	snap := col.Snapshot()
	res.Msgs = snap.TotalMsgs
	res.Entries = snap.LogicalEntries

	// Assemble and judge the history. Operations never invoked (their
	// process crashed first) are not part of it. The per-kind rounds and
	// latency means accumulate alongside: both derive from the recorded
	// completions only, so they replay as deterministically as the history.
	h := check.History{}
	var readN, writeN int
	var readRounds, writeRounds, readLat, writeLat float64
	for i := range infos {
		info := &infos[i]
		if !info.invoked {
			continue
		}
		rec := check.Op{
			ID: proto.OpID(i + 1), Proc: info.pid, Kind: info.kind,
			Value: info.val, Inv: info.inv,
		}
		if c, ok := completions[rec.ID]; ok {
			rec.Completed = true
			rec.Res = c.at
			if info.kind == proto.OpRead {
				rec.Value = c.val
			}
			res.Completed++
			switch info.kind {
			case proto.OpRead:
				readN++
				readRounds += float64(c.rounds)
				readLat += c.at - info.inv
			case proto.OpWrite:
				writeN++
				writeRounds += float64(c.rounds)
				writeLat += c.at - info.inv
			}
		} else {
			res.Pending++
			// Pending is legitimate only for the ops a crash cut off:
			// after quiescence, an incomplete op on a live process can
			// never complete — a liveness violation. A revived process
			// counts as live again, but the operations its previous
			// incarnation took down with it are excused; anything it
			// invoked after the crash must terminate.
			if !res.Truncated && !net.Crashed(info.pid) &&
				!(everCrashed[info.pid] && info.inv <= crashAt[info.pid]) {
				res.Stalled++
			}
		}
		h.Ops = append(h.Ops, rec)
	}
	res.WriterProcs, res.WriteOverlaps = writerInterleaving(h)
	if readN > 0 {
		res.ReadRounds = readRounds / float64(readN)
		res.ReadLatency = readLat / float64(readN)
	}
	if writeN > 0 {
		res.WriteRounds = writeRounds / float64(writeN)
		res.WriteLatency = writeLat / float64(writeN)
	}

	if keyed {
		// Keyed stores are judged register by register: the history splits
		// per key (the key derivation is a pure function of the op id), and
		// each key's sub-history must linearize on its own. The exhaustive
		// cross-check is skipped — it reasons about one register.
		res.Checker = "per-key"
		res.Atomicity = judgePerKey(ka, h)
	} else {
		judge := judgeFor(h)
		res.Checker = judge.Name()
		fastErr := judge.Check(h)
		if fastErr != nil {
			res.Atomicity = fastErr.Error()
		}
		if eligible := linEligibleOps(h); eligible > 0 && eligible <= maxCrossCheckOps {
			linErr := check.CheckLinearizable(h)
			if (fastErr != nil) != (linErr != nil) {
				res.CrossCheck = fmt.Sprintf("oracles disagree on a %d-op history: %s=%v lin=%v", eligible, judge.Name(), fastErr, linErr)
			}
		}
	}
	res.Fingerprint = fingerprint(h, res)
	return res, nil
}

// keyedAlgorithm is implemented by keyed-store adapters
// (regmap.KeyedAlgorithm): the judge needs the op-to-key derivation to
// split the history back into per-register sub-histories.
type keyedAlgorithm interface {
	Keys() int
	KeyOf(op proto.OpID) int
}

// judgeFor picks h's fast oracle: check.For (the SWMR characterisation or
// the MWMR cluster checker, depending on how many processes wrote), except
// for a crashed-and-revived writer. That leaves a forever-pending write
// followed by its successor incarnation's writes; the Lemma-10
// characterisation requires a sequential never-crashed writer and rejects
// the shape as a precondition violation, while the cluster checker judges
// it per the atomicity definition (a pending write may take effect if read,
// or never).
func judgeFor(h check.History) check.Checker {
	if writeFollowsPendingWrite(h) {
		return check.MWMR()
	}
	return check.For(h)
}

// judgePerKey checks each key's sub-history with judgeFor's oracle. It
// returns the first violation, or "".
func judgePerKey(ka keyedAlgorithm, h check.History) string {
	byKey := make(map[int][]check.Op)
	for _, op := range h.Ops {
		k := ka.KeyOf(op.ID)
		byKey[k] = append(byKey[k], op)
	}
	keys := make([]int, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		sub := check.History{Ops: byKey[k]}
		judge := judgeFor(sub)
		if err := judge.Check(sub); err != nil {
			return fmt.Sprintf("key %d (%s): %v", k, judge.Name(), err)
		}
	}
	return ""
}

// writeFollowsPendingWrite reports whether some process invoked a write
// after an earlier write of its own was left forever pending — only a
// crash-restart schedule produces this shape (the incarnation that invoked
// the pending write died; its successor wrote again). Operations appear in
// h in op-id order, which is invocation order per process.
func writeFollowsPendingWrite(h check.History) bool {
	var hasPending map[int]bool
	for _, op := range h.Ops {
		if op.Kind != proto.OpWrite {
			continue
		}
		if hasPending[op.Proc] {
			return true
		}
		if !op.Completed {
			if hasPending == nil {
				hasPending = make(map[int]bool)
			}
			hasPending[op.Proc] = true
		}
	}
	return false
}

// isQuorumAck reports whether msg is (or carries) a quorum acknowledgement
// — the message class whose k-th delivery the crashwrite strategy counts.
// The two-bit registers answer freshness rounds with PROCEED; every other
// registered protocol (ABD and the phased engine behind attiya and
// bounded-abd) names its quorum responses *_ACK. The keyed store may
// coalesce a PROCEED into a cross-key multi-frame, so those are searched
// subframe by subframe (a bare KeyedMsg already reports its inner type
// name). Without this breadth the strategy would silently never crash a
// victim under the ack-based or coalescing algorithms, running them with
// fewer crashes than the schedule says.
func isQuorumAck(msg proto.Message) bool {
	if mm, ok := msg.(regmap.MultiMsg); ok {
		for _, f := range mm.Frames {
			if isQuorumAck(f.Inner) {
				return true
			}
		}
		return false
	}
	name := msg.TypeName()
	return name == "PROCEED" || strings.HasSuffix(name, "_ACK")
}

// writerInterleaving summarizes a history's multi-writer structure: how
// many distinct processes invoked writes, and how many pairs of writes from
// different processes overlapped in real time (a pending write overlaps
// everything after its invocation).
func writerInterleaving(h check.History) (procs, overlaps int) {
	type w struct {
		proc     int
		inv, res float64
		pending  bool
	}
	var ws []w
	seen := map[int]bool{}
	for _, op := range h.Ops {
		if op.Kind != proto.OpWrite {
			continue
		}
		ws = append(ws, w{op.Proc, op.Inv, op.Res, !op.Completed})
		seen[op.Proc] = true
	}
	for i := range ws {
		for j := i + 1; j < len(ws); j++ {
			if ws[i].proc == ws[j].proc {
				continue
			}
			iBeforeJ := !ws[i].pending && ws[i].res < ws[j].inv
			jBeforeI := !ws[j].pending && ws[j].res < ws[i].inv
			if !iBeforeJ && !jBeforeI {
				overlaps++
			}
		}
	}
	return len(seen), overlaps
}

// linEligibleOps counts the operations CheckLinearizable would search over
// (pending reads are dropped by that checker).
func linEligibleOps(h check.History) int {
	n := 0
	for _, op := range h.Ops {
		if op.Completed || op.Kind == proto.OpWrite {
			n++
		}
	}
	return n
}

// fingerprint hashes the recorded history and run extent. Two runs of the
// same descriptor must produce identical fingerprints — that is the
// byte-identical replay guarantee the tokens rest on.
func fingerprint(h check.History, r Result) string {
	// The byte stream hashed here is frozen: it must match what the
	// original fmt.Fprintf formatting produced ("%d", "%x", "%.17g", "%v")
	// so fingerprints recorded by earlier builds stay comparable. strconv
	// into one reused buffer keeps the per-op formatting off the heap.
	hash := sha256.New()
	buf := make([]byte, 0, 128)
	buf = append(buf, "events="...)
	buf = strconv.AppendInt(buf, r.Events, 10)
	buf = append(buf, " msgs="...)
	buf = strconv.AppendInt(buf, int64(r.Msgs), 10)
	buf = append(buf, " end="...)
	buf = strconv.AppendFloat(buf, r.EndTime, 'g', 17, 64)
	buf = append(buf, '\n')
	hash.Write(buf)
	for _, op := range h.Ops {
		buf = buf[:0]
		buf = strconv.AppendInt(buf, int64(op.ID), 10)
		buf = append(buf, '|')
		buf = strconv.AppendInt(buf, int64(op.Proc), 10)
		buf = append(buf, '|')
		buf = strconv.AppendInt(buf, int64(op.Kind), 10)
		buf = append(buf, '|')
		buf = hex.AppendEncode(buf, op.Value)
		buf = append(buf, '|')
		buf = strconv.AppendFloat(buf, op.Inv, 'g', 17, 64)
		buf = append(buf, '|')
		buf = strconv.AppendFloat(buf, op.Res, 'g', 17, 64)
		buf = append(buf, '|')
		buf = strconv.AppendBool(buf, op.Completed)
		buf = append(buf, '\n')
		hash.Write(buf)
	}
	return hex.EncodeToString(hash.Sum(nil))[:16]
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

// pids returns 0..n-1.
func pids(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
