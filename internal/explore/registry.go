package explore

import (
	"sort"
	"sync"

	"twobitreg/internal/abd"
	"twobitreg/internal/core"
	"twobitreg/internal/phased"
	"twobitreg/internal/proto"
	"twobitreg/internal/regmap"
)

// registry maps Schedule.Alg names to constructors. It includes every
// correct algorithm in the repository plus the deliberately broken mutants
// used to verify the explorer's detection power. The map is built once and
// shared read-only — Run resolves an algorithm per schedule, and parallel
// sweeps resolve concurrently; the Algorithm values are stateless factories.
func registry() map[string]proto.Algorithm {
	registryOnce.Do(func() { registryMap = buildRegistry() })
	return registryMap
}

var (
	registryOnce sync.Once
	registryMap  map[string]proto.Algorithm
)

func buildRegistry() map[string]proto.Algorithm {
	return map[string]proto.Algorithm{
		// Correct algorithms.
		"twobit":        core.Algorithm(),
		"twobit-gc":     proto.Alg("twobit-gc", core.Algorithm(core.WithHistoryGC()).New),
		"twobit-oracle": proto.Alg("twobit-oracle", core.Algorithm(core.WithExplicitSeqnums()).New),
		"abd":           abd.Algorithm(),
		"abd-mwmr":      abd.MWMRAlgorithm(),
		"twobit-mwmr":   core.MWMRAlgorithm(),
		// The keyed multi-writer store: every process runs a regmap node
		// hosting one lane-engine register per key (multi-writer keys:
		// every process may write), with cross-key frame coalescing on a
		// half-Δ flush window. Each client op targets a key derived from
		// its id, and the history is judged per key (check.For on every
		// sub-history). The 50-key entry is the nightly sweep size; the
		// 200-key one is the wide mixed-workload acceptance configuration.
		"regmap-mwmr": regmap.NewKeyedAlgorithm("regmap-mwmr", 50,
			regmap.Config{Coalesce: true}),
		"regmap-mwmr-wide": regmap.NewKeyedAlgorithm("regmap-mwmr-wide", 200,
			regmap.Config{Coalesce: true}),
		"bounded-abd": phased.Algorithm(phased.BoundedABD()),
		"attiya":      phased.Algorithm(phased.Attiya()),
		// The phased engine in its minimal configuration (1 write phase,
		// 2 read phases — ABD's exchange): bounded-abd and attiya are
		// deeper phase schedules of the same engine, but this entry
		// exercises its base case directly.
		"phased": phased.Algorithm(phased.Config{
			Name: "phased", WritePhases: 1, ReadPhases: 2,
			CtrlBits:   func(n int) int { return 64 },
			MemoryBits: func(n int) int { return 128 },
		}),

		// Mutants: each is a seeded protocol bug the explorer must catch
		// within a bounded schedule budget (see mutation_test.go). Never
		// run these outside detection tests.
		"mut-ack-early":    proto.Alg("mut-ack-early", core.Algorithm(core.WithFault(core.FaultAckBeforeQuorum)).New),
		"mut-skip-proceed": proto.Alg("mut-skip-proceed", core.Algorithm(core.WithFault(core.FaultSkipProceedWait)).New),
		// The durability cheat on the served register: appends are logged
		// but the pre-attestation Sync is skipped, so a crash loses the
		// whole log and the revived process comes back with empty lanes
		// (core.MWFaultWALSkipSync). Invisible to every crash-stop
		// adversary — only the crashrestart strategy, reviving a victim
		// that wrote, exposes it (the post-revival invariant probe sees
		// peers holding more of a writer's stream than the writer).
		"mut-wal-skipsync": proto.Alg("mut-wal-skipsync",
			core.MWMRAlgorithm(core.WithMWFault(core.MWFaultWALSkipSync)).New),
		"mut-stale-read": proto.Alg("mut-stale-read", newStaleReader),
		"mut-mwmr-stale": proto.Alg("mut-mwmr-stale", newMWMRStaleReader),
		// The lost-write bug of the multi-writer two-bit register: the
		// write's freshness phase is skipped, so a lagging writer's value
		// can be ordered before already-completed writes (see
		// core.MWFaultSkipWriteSync). Only genuinely concurrent writer
		// streams expose it — single-writer schedules run it clean.
		"mut-twobit-mwmr": proto.Alg("mut-twobit-mwmr", core.MWMRAlgorithm(core.WithMWFault(core.MWFaultSkipWriteSync)).New),
		// The torn-padding bug of the batched register: a receiver
		// materializes only the head and tail of a batched lane frame
		// (core.MWFaultTornBatch), so its lane runs short of what the
		// writer shipped. Surfaces as a stalled dominated write (the
		// completion quorum can never fill — caught by the stalled-ops
		// liveness check) once padding gaps produce frames of three or
		// more entries, i.e. under concurrent writer streams.
		"mut-lane-batch": proto.Alg("mut-lane-batch", core.MWMRAlgorithm(core.WithMWFault(core.MWFaultTornBatch)).New),
		// The twice-crossed-link bug of run-scoped forwarding: a relay
		// forwards the second index of an adopted run without advancing the
		// link's send cursor (core.MWFaultRunResend), so that index crosses
		// the link again — with the rest of the run, or on the peer's echo.
		// The receiver's count of the relay overtakes the relay's holdings —
		// the conservation probe — as soon as a padded run is relayed, i.e.
		// under concurrent writer streams.
		"mut-lane-resend": proto.Alg("mut-lane-resend", core.MWMRAlgorithm(core.WithMWFault(core.MWFaultRunResend)).New),
		// The cold-read bug of lazy links: a READ does not mark its sender
		// serving (core.MWFaultColdRead), so relays that invoke nothing go
		// on owing the reader what it waits for at line 9 — a stalled read.
		// Only schedules that leave processes idle (Schedule.Clients) expose
		// it: a process with an operation of its own forwards everywhere.
		"mut-lane-coldread": proto.Alg("mut-lane-coldread", core.MWMRAlgorithm(core.WithMWFault(core.MWFaultColdRead)).New),
		// The split-run bug (core.MWFaultSplitRun): the emitter cuts a
		// padded write's run across frames. Too rare to hunt within the
		// budget; TestLaneSplitRunCaughtToken pins it.
		"mut-lane-splitrun": proto.Alg("mut-lane-splitrun", core.MWMRAlgorithm(core.WithMWFault(core.MWFaultSplitRun)).New),
		// The lost-cross-key-frame bug of the coalescing keyed store: a
		// receiver silently drops the last subframe of every cross-key
		// multi-frame (regmap.FaultDropMultiTail). The key that subframe
		// served runs short of protocol state — a lane entry, READ or
		// PROCEED that never lands — so operations on it stall (the
		// liveness check) or read stale (the per-key checker).
		"mut-regmap-frame": regmap.NewKeyedAlgorithm("mut-regmap-frame", 50,
			regmap.Config{Coalesce: true, Fault: regmap.FaultDropMultiTail}),
		// The group-commit cheat (regmap.FaultEarlyRelease): a crash
		// between a step and its flush tick loses records a peer already
		// processed — only crashrestart sees it. Fifty keys, regmap-mwmr's
		// shape: the probes check a key the revived process no longer
		// hosts as an empty register there.
		"mut-wal-earlyrelease": regmap.NewKeyedAlgorithm("mut-wal-earlyrelease", 50,
			regmap.Config{Coalesce: true, Fault: regmap.FaultEarlyRelease}),
		// The lone multi-frame (regmap.FaultLoneMulti): the coalescer ships
		// a single held subframe as a one-frame MultiMsg. Every node takes
		// it, so only the codec in the delivery path catches it: the frame
		// does not cross wire.
		"mut-regmap-lonemulti": regmap.NewKeyedAlgorithm("mut-regmap-lonemulti", 50,
			regmap.Config{Coalesce: true, Fault: regmap.FaultLoneMulti}),
	}
}

// mwmrCapable marks the algorithms whose protocol tolerates concurrent
// writers. Everything else implements the paper's single-writer register:
// exploring it under a multi-writer workload would report violations of an
// assumption, not bugs, so Run refuses the combination. Read-only shared
// map, like registry.
func mwmrCapable() map[string]bool {
	return mwmrCapableSet
}

var mwmrCapableSet = map[string]bool{
	"abd-mwmr":             true,
	"twobit-mwmr":          true,
	"regmap-mwmr":          true,
	"regmap-mwmr-wide":     true,
	"mut-mwmr-stale":       true,
	"mut-twobit-mwmr":      true,
	"mut-lane-batch":       true,
	"mut-lane-resend":      true,
	"mut-lane-coldread":    true,
	"mut-lane-splitrun":    true,
	"mut-wal-skipsync":     true,
	"mut-regmap-frame":     true,
	"mut-wal-earlyrelease": true,
	"mut-regmap-lonemulti": true,
}

// MWMRCapable reports whether the named algorithm supports concurrent
// writers (and may therefore be explored with Schedule.Writers >= 2).
func MWMRCapable(name string) bool { return mwmrCapable()[name] }

// MWMRAlgorithmNames returns the correct (non-mutant) multi-writer-capable
// algorithm names, sorted.
func MWMRAlgorithmNames() []string {
	var out []string
	for name := range mwmrCapable() {
		if _, ok := registry()[name]; ok && !isMutant(name) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// ByName resolves an algorithm (or mutant) name from a Schedule.
func ByName(name string) (proto.Algorithm, bool) {
	a, ok := registry()[name]
	return a, ok
}

// AlgorithmNames returns the correct (non-mutant) algorithm names, sorted.
func AlgorithmNames() []string {
	var out []string
	for name := range registry() {
		if !isMutant(name) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// MutantNames returns the deliberately broken variants, sorted.
func MutantNames() []string {
	var out []string
	for name := range registry() {
		if isMutant(name) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

func isMutant(name string) bool { return len(name) > 4 && name[:4] == "mut-" }

// staleReader wraps a correct process with a broken read cache: once it has
// seen any read complete, later reads return that value immediately without
// running the protocol. This mutant exercises the wrapper path (proto.Alg)
// and violates Claims 2/3 as soon as a newer write completes elsewhere. Its
// MWMR variant wraps the multi-writer ABD baseline, giving the cluster
// checker a seeded bug it must catch under true multi-writer workloads.
type staleReader struct {
	proto.Process
	cached proto.Value
	has    bool
}

func newStaleReader(id, n, writer int) proto.Process {
	return &staleReader{Process: core.New(id, n, writer)}
}

func newMWMRStaleReader(id, n, writer int) proto.Process {
	return &staleReader{Process: abd.MWMRAlgorithm().New(id, n, writer)}
}

func (s *staleReader) StartRead(op proto.OpID) proto.Effects {
	if s.has {
		var eff proto.Effects
		eff.AddDone(op, proto.OpRead, s.cached.Clone())
		return eff
	}
	return s.observe(s.Process.StartRead(op))
}

func (s *staleReader) Deliver(from int, msg proto.Message) proto.Effects {
	return s.observe(s.Process.Deliver(from, msg))
}

func (s *staleReader) observe(eff proto.Effects) proto.Effects {
	for _, d := range eff.Done {
		if d.Kind == proto.OpRead {
			s.cached = d.Value.Clone()
			s.has = true
		}
	}
	return eff
}
