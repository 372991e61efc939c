package explore

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// SweepSpec parameterizes a budgeted exploration sweep: the cross product of
// algorithms and strategies, swept over consecutive seeds until the run
// budget is exhausted.
type SweepSpec struct {
	// Algs and Strategies default to all correct algorithms and all
	// strategies when empty.
	Algs       []string `json:"algs"`
	Strategies []string `json:"strategies"`
	// N, Ops, ReadFrac, Crashes shape every explored schedule. N and Ops
	// default to 5 and 30 when zero.
	N        int     `json:"n"`
	Ops      int     `json:"ops"`
	ReadFrac float64 `json:"read_frac"`
	Crashes  int     `json:"crashes"`
	// Writers >= 2 sweeps true multi-writer workloads; Algs then defaults
	// to the MWMR-capable algorithms instead of all correct ones.
	Writers int `json:"writers,omitempty"`
	// PCT > 0 runs the pct strategy as a true d-bounded PCT with that many
	// priority change points (see Schedule.PCT).
	PCT int `json:"pct,omitempty"`
	// Skew >= 2 gives writer 0 that multiple of each peer's write rate
	// (see Schedule.Skew); it requires Writers >= 2.
	Skew int `json:"skew,omitempty"`
	// Clients > 0 leaves processes Clients..N-1 without operations (see
	// Schedule.Clients); it must be at least Writers.
	Clients int `json:"clients,omitempty"`
	// Budget is the total number of runs; it defaults to 100.
	Budget int `json:"budget"`
	// Seed0 is the first seed; round k uses Seed0+k.
	Seed0 int64 `json:"seed0"`
	// StopEarly returns at the first failure instead of spending the whole
	// budget — what the mutation tests use to measure detection latency.
	StopEarly bool `json:"stop_early,omitempty"`
	// Workers shards the sweep over that many goroutines. Schedules are
	// independent and fully seeded, so sharding only changes wall-clock
	// time: results merge in schedule-enumeration order (never completion
	// order) and the SweepResult is byte-identical for every worker count,
	// including StopEarly truncation. 0 and 1 run sequentially; negative
	// values use GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
}

// SweepResult aggregates a sweep: how many runs executed, how many were
// clean, and every failure (each carrying its replay token).
type SweepResult struct {
	Runs     int      `json:"runs"`
	Clean    int      `json:"clean"`
	Failures []Result `json:"failures"`
}

// Sweep explores spec's schedule family within its budget.
func Sweep(spec SweepSpec) (SweepResult, error) {
	if len(spec.Algs) == 0 {
		if spec.Writers >= 2 {
			spec.Algs = MWMRAlgorithmNames()
		} else {
			spec.Algs = AlgorithmNames()
		}
	}
	if len(spec.Strategies) == 0 {
		spec.Strategies = StrategyNames()
	}
	if spec.N < 1 {
		spec.N = 5
	}
	if spec.Ops < 1 {
		spec.Ops = 30
	}
	if spec.Budget < 1 {
		spec.Budget = 100
	}
	if spec.PCT > 0 {
		hasPCT := false
		for _, st := range spec.Strategies {
			if st == "pct" {
				hasPCT = true
			}
		}
		if !hasPCT {
			return SweepResult{}, fmt.Errorf("explore: pct depth %d requested but the pct strategy is not in the sweep (strategies: %v)", spec.PCT, spec.Strategies)
		}
	}
	jobs := sweepJobs(spec)
	workers := spec.Workers
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	// The pool runs jobs by ascending index and merges by index, so the
	// output is a pure function of the job list: a terminating run (an
	// error always; a failure under StopEarly) at index c makes every job
	// after c unobservable, and the cutoff lets workers skip them — with
	// one worker this degenerates to the classic sequential early exit.
	results := make([]Result, len(jobs))
	errs := make([]error, len(jobs))
	var next atomic.Int64
	var cutoff atomic.Int64
	cutoff.Store(math.MaxInt64)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(jobs)) || i > cutoff.Load() {
					return
				}
				r, err := Run(jobs[i])
				results[i], errs[i] = r, err
				if err != nil || (spec.StopEarly && r.Failed()) {
					for {
						c := cutoff.Load()
						if i >= c || cutoff.CompareAndSwap(c, i) {
							break
						}
					}
				}
			}
		}()
	}
	wg.Wait()

	var out SweepResult
	for i := range jobs {
		if errs[i] != nil {
			return out, fmt.Errorf("explore: sweep run %d: %w", out.Runs, errs[i])
		}
		out.Runs++
		if results[i].Failed() {
			out.Failures = append(out.Failures, results[i])
			if spec.StopEarly {
				return out, nil
			}
		} else {
			out.Clean++
		}
	}
	return out, nil
}

// sweepJobs enumerates the sweep's schedules in their canonical order —
// rounds (consecutive seeds) outermost, then algorithms, then strategies —
// truncated at the budget. Merge order everywhere is this order.
func sweepJobs(spec SweepSpec) []Schedule {
	jobs := make([]Schedule, 0, spec.Budget)
	for round := int64(0); len(jobs) < spec.Budget; round++ {
		for _, alg := range spec.Algs {
			for _, st := range spec.Strategies {
				if len(jobs) >= spec.Budget {
					break
				}
				sched := Schedule{
					Alg: alg, Strategy: st, Seed: spec.Seed0 + round,
					N: spec.N, Ops: spec.Ops, ReadFrac: spec.ReadFrac,
					Crashes: spec.Crashes, Writers: spec.Writers,
					Skew: spec.Skew, Clients: spec.Clients,
				}
				if st == "pct" {
					sched.PCT = spec.PCT
				}
				jobs = append(jobs, sched)
			}
		}
	}
	return jobs
}

// Shrink minimizes a failing schedule by bisecting the descriptor, not the
// trace: candidates with fewer operations, processes, or crashes are re-run
// and adopted while they still fail. budget bounds the candidate runs. It
// returns the smallest failing schedule found with its result; if s itself
// does not fail, it is returned unchanged.
func Shrink(s Schedule, budget int) (Schedule, Result, error) {
	res, err := Run(s)
	if err != nil || !res.Failed() {
		return s, res, err
	}
	cur, curRes := s, res
	for budget > 0 {
		improved := false
		for _, cand := range shrinkCandidates(cur) {
			if budget <= 0 {
				break
			}
			budget--
			cr, err := Run(cand)
			if err != nil {
				continue
			}
			if cr.Failed() {
				cur, curRes = cand, cr
				improved = true
				break
			}
		}
		if !improved {
			break
		}
	}
	return cur, curRes, nil
}

// shrinkCandidates proposes strictly smaller descriptors, most aggressive
// first.
func shrinkCandidates(s Schedule) []Schedule {
	var out []Schedule
	add := func(c Schedule) { out = append(out, c) }
	if s.Ops > 3 {
		c := s
		c.Ops = s.Ops / 2
		add(c)
	}
	if s.Ops > 1 {
		c := s
		c.Ops = s.Ops - 1
		add(c)
	}
	if s.N > 3 {
		c := s
		c.N = s.N - 2 // keep n odd so the crash budget shrinks smoothly
		add(c)
	}
	if s.Crashes > 0 {
		c := s
		c.Crashes = s.Crashes - 1
		add(c)
	}
	if s.Writers > 2 {
		c := s
		c.Writers = s.Writers - 1
		add(c)
	}
	if s.Clients > max(s.Writers, 1) {
		c := s
		c.Clients = s.Clients - 1 // one more process that only relays
		add(c)
	}
	return out
}
