package explore

import (
	"fmt"
	"strconv"
	"strings"
)

// tokenVersion prefixes every replay token. Bump it whenever a change to the
// explorer alters what a descriptor reproduces (field set, strategy
// semantics, workload derivation): an old token must fail to parse rather
// than silently replay a different run.
const tokenVersion = "xb1"

// Schedule is the compact descriptor of one adversarial run: algorithm,
// adversary strategy, and the seeds and sizes that make the run
// reproducible byte for byte. A Schedule serializes to a one-line replay
// token (Token/ParseToken); failure reports carry the token, and
// `go test -run TestReplay -replay=<token> ./internal/explore` replays it.
type Schedule struct {
	// Alg names the algorithm under test (see AlgorithmNames and
	// MutantNames).
	Alg string `json:"alg"`
	// Strategy names the adversary (see StrategyNames).
	Strategy string `json:"strategy"`
	// Seed drives every random choice of the run: the workload, the
	// adversary's delay draws, crash placement, and (for pct) tie-breaking.
	Seed int64 `json:"seed"`
	// N is the number of processes; process 0 is the writer.
	N int `json:"n"`
	// Ops is the total number of client operations in the workload.
	Ops int `json:"ops"`
	// ReadFrac is the read fraction of the workload, in [0, 1].
	ReadFrac float64 `json:"read_frac"`
	// Crashes is the number of processes other than process 0 the adversary
	// crashes; Run caps it at proto.MaxFaulty(N). In multi-writer runs the
	// victims may include writers, leaving pending writes in the history.
	Crashes int `json:"crashes"`
	// Writers is the number of concurrent writer processes (pids
	// 0..Writers-1). 0 and 1 both mean the classic single-writer workload,
	// which reproduces byte-identically to pre-Writers tokens; >= 2 selects
	// a true multi-writer workload (distinct per-writer tagged values,
	// every process also reading) and requires an MWMR-capable algorithm.
	Writers int `json:"writers,omitempty"`
	// PCT is the number of priority change points of the d-bounded PCT
	// adversary; it requires the pct strategy. 0 (the default) keeps the
	// legacy pct behaviour — a fresh random tie-break per event — so every
	// historical pct token replays byte-identically. A positive value
	// switches the pct strategy to per-process priorities with PCT seeded
	// change points (see pctEngine) and serializes as a 10th token field.
	PCT int `json:"pct,omitempty"`
	// Skew is the hot-writer weight of a multi-writer workload: writer 0
	// issues Skew times as many writes as each other writer (e.g. 10 is a
	// 10:1 skew — the read-dominated keyed-store mix the regmap benchmarks
	// measure). 0 and 1 both mean the balanced draw, byte-identical to
	// pre-Skew tokens; >= 2 requires Writers >= 2 and serializes as an 11th
	// token field.
	Skew int `json:"skew,omitempty"`
	// Clients is the number of processes that invoke operations: pids
	// 0..Clients-1 read (and, up to Writers, write), the rest only relay —
	// they never start an operation, so they never send a READ, which is
	// the kind of member the lanes' lazy links exist for. Writers must fit
	// (Writers <= Clients). 0 means every process, byte-identical to
	// pre-Clients tokens (Run canonicalizes Clients == N to 0); a positive
	// value serializes as a 12th token field.
	Clients int `json:"clients,omitempty"`
}

// Token serializes s to its one-line replay token. Single-writer schedules
// keep the original 8-field form, so historical tokens stay canonical;
// multi-writer schedules append the writer count as a 9th field. A positive
// PCT depth appends a 10th field (and forces the 9th: single-writer
// schedules with a depth carry the canonical writer count 1 there). A client
// count appends a 12th, with the three columns before it riding along as
// their defaults where unused.
func (s Schedule) Token() string {
	parts := []string{
		tokenVersion,
		s.Alg,
		s.Strategy,
		strconv.FormatInt(s.Seed, 10),
		strconv.Itoa(s.N),
		strconv.Itoa(s.Ops),
		strconv.FormatFloat(s.ReadFrac, 'g', -1, 64),
		strconv.Itoa(s.Crashes),
	}
	switch {
	case s.Clients > 0:
		parts = append(parts, strconv.Itoa(max(s.Writers, 1)), strconv.Itoa(s.PCT), strconv.Itoa(s.Skew), strconv.Itoa(s.Clients))
	case s.Skew > 1:
		// Skew implies a multi-writer schedule; the PCT field rides along
		// (possibly as its default 0) so the skew lands in a fixed column.
		parts = append(parts, strconv.Itoa(s.Writers), strconv.Itoa(s.PCT), strconv.Itoa(s.Skew))
	case s.PCT > 0:
		w := s.Writers
		if w < 2 {
			w = 1
		}
		parts = append(parts, strconv.Itoa(w), strconv.Itoa(s.PCT))
	case s.Writers > 1:
		parts = append(parts, strconv.Itoa(s.Writers))
	}
	return strings.Join(parts, ":")
}

// ParseToken is the inverse of Token. It validates shape only; Run validates
// that the algorithm and strategy names resolve.
func ParseToken(tok string) (Schedule, error) {
	parts := strings.Split(strings.TrimSpace(tok), ":")
	if len(parts) < 8 || len(parts) > 12 {
		return Schedule{}, fmt.Errorf("explore: token needs 8 to 12 fields, got %d in %q", len(parts), tok)
	}
	if parts[0] != tokenVersion {
		return Schedule{}, fmt.Errorf("explore: token version %q, this explorer speaks %q", parts[0], tokenVersion)
	}
	s := Schedule{Alg: parts[1], Strategy: parts[2]}
	var err error
	if s.Seed, err = strconv.ParseInt(parts[3], 10, 64); err != nil {
		return Schedule{}, fmt.Errorf("explore: bad seed in token: %w", err)
	}
	if s.N, err = strconv.Atoi(parts[4]); err != nil {
		return Schedule{}, fmt.Errorf("explore: bad n in token: %w", err)
	}
	if s.Ops, err = strconv.Atoi(parts[5]); err != nil {
		return Schedule{}, fmt.Errorf("explore: bad ops in token: %w", err)
	}
	if s.ReadFrac, err = strconv.ParseFloat(parts[6], 64); err != nil {
		return Schedule{}, fmt.Errorf("explore: bad read fraction in token: %w", err)
	}
	if s.Crashes, err = strconv.Atoi(parts[7]); err != nil {
		return Schedule{}, fmt.Errorf("explore: bad crash count in token: %w", err)
	}
	if len(parts) >= 9 {
		if s.Writers, err = strconv.Atoi(parts[8]); err != nil {
			return Schedule{}, fmt.Errorf("explore: bad writer count in token: %w", err)
		}
		if len(parts) == 9 && s.Writers < 2 {
			return Schedule{}, fmt.Errorf("explore: 9-field token carries writer count %d; single-writer tokens have 8 fields", s.Writers)
		}
	}
	if len(parts) >= 10 {
		// The 10th field exists for a positive PCT depth, or as the fixed
		// PCT column of an 11-field skew or 12-field clients token (where it
		// may be 0); writer count 1 is the canonical single-writer marker in
		// these forms.
		if s.Writers < 1 {
			return Schedule{}, fmt.Errorf("explore: %d-field token carries writer count %d, need >= 1", len(parts), s.Writers)
		}
		if s.PCT, err = strconv.Atoi(parts[9]); err != nil {
			return Schedule{}, fmt.Errorf("explore: bad pct depth in token: %w", err)
		}
		if len(parts) == 10 && s.PCT < 1 {
			return Schedule{}, fmt.Errorf("explore: 10-field token carries pct depth %d; depth-free tokens have at most 9 fields", s.PCT)
		}
		if s.PCT < 0 {
			return Schedule{}, fmt.Errorf("explore: negative pct depth %d in token", s.PCT)
		}
	}
	if len(parts) >= 11 {
		if s.Skew, err = strconv.Atoi(parts[10]); err != nil {
			return Schedule{}, fmt.Errorf("explore: bad skew in token: %w", err)
		}
		if len(parts) == 11 && s.Skew < 2 {
			return Schedule{}, fmt.Errorf("explore: 11-field token carries skew %d; skew-free tokens have at most 10 fields", s.Skew)
		}
		if s.Skew == 1 || s.Skew < 0 {
			return Schedule{}, fmt.Errorf("explore: token carries skew %d; the balanced draw is 0", s.Skew)
		}
	}
	if len(parts) == 12 {
		if s.Clients, err = strconv.Atoi(parts[11]); err != nil {
			return Schedule{}, fmt.Errorf("explore: bad client count in token: %w", err)
		}
		if s.Clients < 1 {
			return Schedule{}, fmt.Errorf("explore: 12-field token carries client count %d; all-client tokens have at most 11 fields", s.Clients)
		}
	}
	return s, nil
}

// validate rejects descriptors Run cannot execute.
func (s Schedule) validate() error {
	if s.N < 1 {
		return fmt.Errorf("explore: schedule needs N >= 1, got %d", s.N)
	}
	if s.Ops < 0 {
		return fmt.Errorf("explore: negative op count %d", s.Ops)
	}
	if s.ReadFrac < 0 || s.ReadFrac > 1 {
		return fmt.Errorf("explore: read fraction %v outside [0,1]", s.ReadFrac)
	}
	if s.Crashes < 0 {
		return fmt.Errorf("explore: negative crash count %d", s.Crashes)
	}
	if s.Writers < 0 {
		return fmt.Errorf("explore: negative writer count %d", s.Writers)
	}
	if s.Writers > s.N {
		return fmt.Errorf("explore: %d writers exceed %d processes", s.Writers, s.N)
	}
	if s.PCT < 0 {
		return fmt.Errorf("explore: negative pct depth %d", s.PCT)
	}
	if s.PCT > 0 && s.Strategy != "pct" {
		return fmt.Errorf("explore: pct depth %d requires the pct strategy, not %q", s.PCT, s.Strategy)
	}
	if s.Skew < 0 {
		return fmt.Errorf("explore: negative skew %d", s.Skew)
	}
	if s.Skew > 1 && s.Writers < 2 {
		return fmt.Errorf("explore: skew %d requires a multi-writer schedule (writers >= 2, got %d)", s.Skew, s.Writers)
	}
	if s.Clients < 0 || s.Clients > s.N {
		return fmt.Errorf("explore: %d clients among %d processes", s.Clients, s.N)
	}
	if s.Clients > 0 && s.Writers > s.Clients {
		return fmt.Errorf("explore: %d writers exceed %d clients (writers are pids 0..writers-1, clients 0..clients-1)", s.Writers, s.Clients)
	}
	if strings.Contains(s.Alg, ":") || strings.Contains(s.Strategy, ":") {
		return fmt.Errorf("explore: names must not contain ':' (alg %q, strategy %q)", s.Alg, s.Strategy)
	}
	return nil
}
