package explore

import (
	"math"
	"math/rand"
	"sort"

	"twobitreg/internal/transport"
)

// strategy is one adversary family. Its closures draw all persistent
// choices (link speeds, victim sets, burst periods) from the rng handed to
// them, which Run derives from the Schedule seed — so a strategy instance is
// a pure function of the descriptor.
type strategy struct {
	name string
	doc  string
	// delay builds the adversary's delay model for an n-process run with
	// writer 0. The returned DelayFn may additionally use the per-message
	// rng the transport passes (the scheduler's seeded source).
	delay func(n int, rng *rand.Rand) transport.DelayFn
	// gap draws the pause between an operation completing and the next
	// operation starting on the same process.
	gap func(rng *rand.Rand) float64
	// ties, when true, randomizes the scheduler's equal-timestamp
	// tie-breaking (the PCT-style interleaving adversary).
	ties bool
	// phaseCrash, when true, places crashes by delivery count (a protocol
	// phase trigger) instead of by completed-operation count.
	phaseCrash bool
	// proceedCrash, when true, places crashes by quorum-acknowledgement
	// delivery count (PROCEED for the two-bit registers, *_ACK for the
	// others — see isQuorumAck) and prefers writer victims: the k-th
	// acknowledgement a writer receives is its phase progress, so a
	// seeded k lands the crash at an operation's quorum boundary — for
	// the two-bit registers, the freshness-round/append boundary whose
	// padded-append window is where lane-batching bugs hide.
	proceedCrash bool
	// restart, when true, turns crashes into crash-restart faults against
	// recoverable algorithms (storage.Recoverable): every process logs to
	// a FileWAL on an in-memory file, a victim's pending (unsynced) frame
	// is lost at the crash, and a seeded virtual-time later a fresh
	// process reopens and replays the log, rejoins through the bilateral
	// PeerRestarted reset, and resumes its operation stream. Victims are
	// drawn from ALL pids — including writer 0, whose
	// recovered-then-reused state is where durability bugs
	// (mut-wal-skipsync) surface. Algorithms without recovery support —
	// every SWMR register, Figure 1 being crash-stop — degrade to plain
	// crash-stop under this strategy.
	restart bool
}

// strategies returns the adversary families, in stable order.
//
//	uniform     — baseline: iid uniform delays, relaxed op spacing.
//	asym        — per-link asymmetric speeds: each ordered link gets a fixed
//	              log-uniform base delay, so some routes are consistently
//	              ~100x slower than others and gossip takes lopsided paths.
//	slowquorum  — targeted quorum-slowing: a random writer-side set A keeps
//	              fast links internally, but every link leaving A toward the
//	              rest is slow. Completions on A's side race propagation to
//	              the complement — the schedule family that separates
//	              quorum-waiting protocols from almost-quorum ones.
//	race        — writer/reader phase races: near-zero op spacing, so every
//	              read overlaps a write phase boundary somewhere.
//	burst       — burst reordering: links run nearly instantaneous but every
//	              k-th message per link is a straggler, yielding maximal
//	              overtaking within each burst window.
//	crashphase  — crashes triggered at protocol phases: a victim dies upon
//	              its k-th message delivery (k seeded), e.g. mid-quorum.
//	crashwrite  — crashes targeted at a writer's freshness-round/append
//	              boundary: the victim (a writer, in multi-writer
//	              schedules) dies upon its k-th quorum-acknowledgement
//	              delivery (PROCEED, or *_ACK for the ack-based
//	              protocols), i.e. mid-freshness-round or exactly as its
//	              quorum fills and the padded append begins — the window
//	              where lane batching and padding bugs hide.
//	crashrestart— crash-restart faults: victims crash at a protocol phase
//	              (like crashphase, but drawn from ALL pids, writer 0
//	              included) and revive a seeded virtual-time later by
//	              replaying their FileWAL — its unsynced frame lost at
//	              the crash — then rejoining via the bilateral link reset.
//	              The seeded durability bug (mut-wal-skipsync) only
//	              surfaces under this adversary.
//	pct         — random-priority scheduling: delays quantized to a small
//	              integer grid so deliveries pile onto the same instants,
//	              and the scheduler breaks those ties by seeded random
//	              priority (PCT-style interleaving exploration). With a
//	              positive Schedule.PCT depth this becomes a true d-bounded
//	              PCT: per-process priorities with d seeded priority change
//	              points (see pctEngine).
func strategies() []strategy {
	return []strategy{
		{
			name: "uniform",
			doc:  "iid uniform delays in [0.1, 2.0]",
			delay: func(_ int, _ *rand.Rand) transport.DelayFn {
				return func(_, _ int, mrng *rand.Rand) float64 {
					return 0.1 + 1.9*mrng.Float64()
				}
			},
			gap: func(rng *rand.Rand) float64 { return 0.5 + 2*rng.Float64() },
		},
		{
			name: "asym",
			doc:  "fixed per-link log-uniform base delays with jitter",
			delay: func(n int, rng *rand.Rand) transport.DelayFn {
				base := make([][]float64, n)
				for i := range base {
					base[i] = make([]float64, n)
					for j := range base[i] {
						// Log-uniform over [0.05, 5]: two orders of
						// magnitude between the fastest and slowest link.
						base[i][j] = math.Exp(math.Log(0.05) + rng.Float64()*math.Log(5/0.05))
					}
				}
				return func(from, to int, mrng *rand.Rand) float64 {
					return base[from][to] * (0.9 + 0.2*mrng.Float64())
				}
			},
			gap: func(rng *rand.Rand) float64 { return 0.1 + rng.Float64() },
		},
		{
			name: "slowquorum",
			doc:  "slow every link leaving a random writer-side set",
			delay: func(n int, rng *rand.Rand) transport.DelayFn {
				inA := make([]bool, n)
				inA[0] = true // the writer anchors the fast set
				if n > 2 {
					sizeA := 1 + rng.Intn(n-2) // 1..n-2, leaving >= 2 outside
					perm := rng.Perm(n - 1)
					for k := 0; k < sizeA-1; k++ {
						inA[1+perm[k]] = true
					}
				}
				return func(from, to int, mrng *rand.Rand) float64 {
					if inA[from] && !inA[to] {
						return 8 + 4*mrng.Float64()
					}
					return 0.1 + 0.1*mrng.Float64()
				}
			},
			gap: func(rng *rand.Rand) float64 { return 0.2 + 0.8*rng.Float64() },
		},
		{
			name: "race",
			doc:  "near-zero op spacing so reads race write phases",
			delay: func(_ int, _ *rand.Rand) transport.DelayFn {
				return func(_, _ int, mrng *rand.Rand) float64 {
					return 0.5 + mrng.Float64()
				}
			},
			gap: func(rng *rand.Rand) float64 { return 0.01 + 0.05*rng.Float64() },
		},
		{
			name: "burst",
			doc:  "fast links with a periodic straggler per link",
			delay: func(n int, rng *rand.Rand) transport.DelayFn {
				period := make([][]int, n)
				count := make([][]int, n)
				for i := range period {
					period[i] = make([]int, n)
					count[i] = make([]int, n)
					for j := range period[i] {
						period[i][j] = 3 + rng.Intn(4)
					}
				}
				return func(from, to int, mrng *rand.Rand) float64 {
					count[from][to]++
					if count[from][to]%period[from][to] == 0 {
						return 6 + 6*mrng.Float64() // straggler overtaken by the next burst
					}
					return 0.02 + 0.03*mrng.Float64()
				}
			},
			gap: func(rng *rand.Rand) float64 { return 0.2 + 0.4*rng.Float64() },
		},
		{
			name: "crashphase",
			doc:  "victims crash on their k-th message delivery",
			delay: func(_ int, _ *rand.Rand) transport.DelayFn {
				return func(_, _ int, mrng *rand.Rand) float64 {
					return 0.2 + 1.8*mrng.Float64()
				}
			},
			gap:        func(rng *rand.Rand) float64 { return 0.3 + rng.Float64() },
			phaseCrash: true,
		},
		{
			name: "crashwrite",
			doc:  "writer victims crash at a freshness-round/append boundary (k-th PROCEED)",
			delay: func(_ int, _ *rand.Rand) transport.DelayFn {
				return func(_, _ int, mrng *rand.Rand) float64 {
					return 0.3 + 1.7*mrng.Float64()
				}
			},
			// Tight op spacing keeps writes from different writers
			// overlapping, so the victim dies with genuine padding gaps
			// outstanding.
			gap:          func(rng *rand.Rand) float64 { return 0.05 + 0.25*rng.Float64() },
			proceedCrash: true,
		},
		{
			name: "crashrestart",
			doc:  "victims crash at a protocol phase, then revive from stable storage",
			delay: func(_ int, _ *rand.Rand) transport.DelayFn {
				return func(_, _ int, mrng *rand.Rand) float64 {
					return 0.2 + 1.8*mrng.Float64()
				}
			},
			// Near-zero op spacing: a revived process must field reads
			// before its catch-up frames land (delivery delay >= 0.2Δ), so
			// what the checkers judge is its recovered — not re-learned —
			// state.
			gap:        func(rng *rand.Rand) float64 { return 0.01 + 0.04*rng.Float64() },
			phaseCrash: true,
			restart:    true,
		},
		{
			name: "pct",
			doc:  "quantized delays + random-priority tie-breaking",
			delay: func(_ int, _ *rand.Rand) transport.DelayFn {
				return func(_, _ int, mrng *rand.Rand) float64 {
					return float64(1 + mrng.Intn(3))
				}
			},
			gap:  func(rng *rand.Rand) float64 { return float64(1 + rng.Intn(3)) },
			ties: true,
		},
	}
}

// StrategyNames returns every adversary strategy name, sorted.
func StrategyNames() []string {
	var out []string
	for _, s := range strategies() {
		out = append(out, s.name)
	}
	sort.Strings(out)
	return out
}

// StrategyDoc returns a one-line description of the named strategy.
func StrategyDoc(name string) (string, bool) {
	s, ok := strategyByName(name)
	return s.doc, ok
}

func strategyByName(name string) (strategy, bool) {
	for _, s := range strategies() {
		if s.name == name {
			return s, true
		}
	}
	return strategy{}, false
}
