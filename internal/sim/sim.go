// Package sim provides a deterministic discrete-event scheduler with a
// virtual clock.
//
// The paper's time-complexity claims (write ≤ 2Δ, read ≤ 4Δ) are stated for
// a failure-free run where every message takes at most Δ and local
// computation is instantaneous. This scheduler realises exactly that model:
// events execute atomically at virtual timestamps, ties break in scheduling
// order, and all randomness flows from one seeded source, so every run is
// reproducible from its seed.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
)

// Scheduler is a discrete-event executor over virtual time.
// Create one with New; the zero value is not usable.
type Scheduler struct {
	now    float64
	seq    uint64
	events eventHeap
	rng    *rand.Rand
	tieRng *rand.Rand
	// free recycles event records: a simulation delivers millions of
	// messages, and allocating a fresh heap node per event is measurable
	// on the sweep hot path.
	free []*event
	// Executed counts events run so far; useful as a progress metric and
	// for runaway detection in tests.
	executed int64
}

// Event is a schedulable unit of work. Hot paths (transport delivery)
// implement it on a pooled struct instead of capturing a closure per
// message; the pointer-shaped interface value costs no allocation.
type Event interface {
	Run()
}

type event struct {
	at  float64
	tie uint64 // tie-break for equal timestamps: seq (FIFO) or random priority
	seq uint64 // scheduling order; final tie-break and FIFO default
	fn  func()
	r   Event // struct-based alternative to fn (exactly one is set)
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].tie != h[j].tie {
		return h[i].tie < h[j].tie
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// New returns a scheduler whose randomness is derived from seed.
func New(seed int64) *Scheduler {
	return &Scheduler{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() float64 { return s.now }

// Rand returns the scheduler's deterministic random source.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// RandomizeTies switches the tie-break rule for equal-timestamp events from
// FIFO scheduling order to a seeded random priority drawn per event. With
// quantized delays this turns every batch of simultaneous deliveries into a
// fresh interleaving per seed — the PCT-style adversary the schedule
// explorer uses. Call it before scheduling any events; runs stay
// reproducible from (scheduler seed, tie seed).
func (s *Scheduler) RandomizeTies(seed int64) {
	s.tieRng = rand.New(rand.NewSource(seed))
}

// Pending returns the number of events not yet run.
func (s *Scheduler) Pending() int { return len(s.events) }

// alloc returns a recycled (or fresh) event record.
func (s *Scheduler) alloc() *event {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free = s.free[:n-1]
		return e
	}
	return &event{}
}

// push fills a pooled record and enqueues it.
func (s *Scheduler) push(t float64, tie uint64, fn func(), r Event) {
	e := s.alloc()
	e.at, e.tie, e.seq, e.fn, e.r = t, tie, s.seq, fn, r
	heap.Push(&s.events, e)
}

// defaultTie draws the tie-break for At-style scheduling: the sequence
// number (FIFO) unless RandomizeTies switched to per-event random draws.
func (s *Scheduler) defaultTie() uint64 {
	if s.tieRng != nil {
		return s.tieRng.Uint64()
	}
	return s.seq
}

// At schedules fn to run at virtual time t. Scheduling in the past is a
// programmer error and panics.
func (s *Scheduler) At(t float64, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, s.now))
	}
	s.seq++
	s.push(t, s.defaultTie(), fn, nil)
}

// AtEvent is At for a pooled Event — the allocation-free form the
// transport's delivery hot path uses.
func (s *Scheduler) AtEvent(t float64, r Event) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, s.now))
	}
	s.seq++
	s.push(t, s.defaultTie(), nil, r)
}

// After schedules fn to run d time units from now. d must be >= 0.
func (s *Scheduler) After(d float64, fn func()) {
	s.At(s.now+d, fn)
}

// AtTie schedules fn at virtual time t with an explicit tie-break priority,
// overriding the default rule (FIFO scheduling order, or the per-event
// random draw of RandomizeTies). Among events with equal timestamps, lower
// tie values run first; the scheduling sequence number remains the final
// tie-break, so runs stay deterministic. This is the hook the d-bounded PCT
// adversary uses to impose per-process priorities on deliveries.
func (s *Scheduler) AtTie(t float64, tie uint64, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, s.now))
	}
	s.seq++
	s.push(t, tie, fn, nil)
}

// AtTieEvent is AtTie for a pooled Event.
func (s *Scheduler) AtTieEvent(t float64, tie uint64, r Event) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, s.now))
	}
	s.seq++
	s.push(t, tie, nil, r)
}

// Step runs the next event, if any, and reports whether one ran.
func (s *Scheduler) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	e := heap.Pop(&s.events).(*event)
	s.now = e.at
	s.executed++
	fn, r := e.fn, e.r
	e.fn, e.r = nil, nil
	s.free = append(s.free, e)
	if r != nil {
		r.Run()
	} else {
		fn()
	}
	return true
}

// Run executes events until none remain and returns how many ran.
func (s *Scheduler) Run() int64 {
	start := s.executed
	for s.Step() {
	}
	return s.executed - start
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// t (even if no event was pending at t). It returns how many events ran.
func (s *Scheduler) RunUntil(t float64) int64 {
	start := s.executed
	for len(s.events) > 0 && s.events[0].at <= t {
		s.Step()
	}
	if s.now < t {
		s.now = t
	}
	return s.executed - start
}

// RunLimit executes at most limit events and returns how many ran. It is the
// safety valve property tests use to bound livelocked schedules.
func (s *Scheduler) RunLimit(limit int64) int64 {
	var ran int64
	for ran < limit && s.Step() {
		ran++
	}
	return ran
}
