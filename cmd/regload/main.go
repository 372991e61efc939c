// Command regload is the closed-loop load harness for the sharded keyed
// TCP service: it stands up a shards×(procs/shards) cluster of the
// coalescing keyed store over loopback TCP (the cmd/regnode v2 production
// stack, client-protocol servers included), drives it through
// internal/regclient with closed-loop client goroutines, and reports
// ops/sec plus read/write latency histograms (p50/p95/p99) and the mesh's
// batching counters.
//
// Examples:
//
//	regload -procs 3 -clients 16 -keys 64 -read-frac 0.6 -duration 5s
//	regload -procs 6 -shards 2 -clients 16 -duration 5s   # two independent quorum groups
//	regload -procs 5 -clients 32 -keys 200 -ops 20000 -json
//	regload -procs 3 -clients 8 -duration 5s -dead 2   # dead-peer scenario
//	regload -procs 3 -clients 8 -duration 5s -restart 2@1.5   # kill p2 at 1.5s, revive from its log
//
// Exactly one of -duration and -ops bounds the run. -min-ops makes the run
// a gate: fewer completed operations exit non-zero (the CI loopback smoke).
// All flags are validated up front; mistakes report the offending flag.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"twobitreg/internal/regload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("regload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		procs    = fs.Int("procs", 3, "total process count (majority quorums per shard: dead peers must stay a minority)")
		shards   = fs.Int("shards", 1, "shard count (-procs must divide evenly; each shard is an independent quorum group)")
		clients  = fs.Int("clients", 8, "closed-loop client goroutines, spread over the live processes")
		keys     = fs.Int("keys", 64, "key-space size of the keyed store")
		readFrac = fs.Float64("read-frac", 0.6, "fraction of operations that are reads, in [0,1]")
		duration = fs.Duration("duration", 5*time.Second, "wall-clock run length (set -ops to bound by count instead)")
		ops      = fs.Int64("ops", 0, "total operation budget (overrides -duration when positive)")
		valSize  = fs.Int("value-size", 16, "written payload bytes")
		seed     = fs.Int64("seed", 1, "workload seed (same spec + seed = same op mix)")
		dead     = fs.String("dead", "", "comma-separated process ids to kill before load (dead-peer scenario)")
		restart  = fs.String("restart", "", "comma-separated proc@seconds kill-and-revive faults, e.g. 2@1.5 (revived from the durable log after the default downtime)")
		minOps   = fs.Int64("min-ops", 0, "exit non-zero if fewer operations complete (CI smoke gate)")
		asJSON   = fs.Bool("json", false, "emit the report as JSON")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	deadList, err := parseDead(*dead)
	if err != nil {
		fmt.Fprintln(stderr, "regload: invalid -dead:", err)
		return 2
	}
	restarts, err := parseRestarts(*restart)
	if err != nil {
		fmt.Fprintln(stderr, "regload: invalid -restart:", err)
		return 2
	}
	spec := regload.Spec{
		Procs:     *procs,
		Shards:    *shards,
		Clients:   *clients,
		Keys:      *keys,
		ReadFrac:  *readFrac,
		ValueSize: *valSize,
		Seed:      *seed,
		Dead:      deadList,
		Restart:   restarts,
	}
	if *ops > 0 {
		spec.Ops = *ops
	} else {
		spec.Duration = *duration
	}
	if err := spec.Validate(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *minOps < 0 {
		fmt.Fprintln(stderr, "regload: invalid -min-ops: must be non-negative")
		return 2
	}

	rep, err := regload.Run(spec)
	if err != nil {
		fmt.Fprintln(stderr, "regload:", err)
		return 1
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(stderr, "regload:", err)
			return 1
		}
	} else {
		fmt.Fprintln(stdout, rep)
	}
	if *minOps > 0 && rep.Ops < *minOps {
		fmt.Fprintf(stderr, "regload: completed %d ops, below the -min-ops gate of %d\n", rep.Ops, *minOps)
		return 1
	}
	return 0
}

// parseRestarts parses the comma-separated -restart list of proc@seconds
// entries (downtime uses the Restart default); range and quorum checks
// live in Spec.Validate.
func parseRestarts(s string) ([]regload.Restart, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]regload.Restart, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		proc, at, ok := strings.Cut(p, "@")
		if !ok {
			return nil, fmt.Errorf("%q is not proc@seconds", p)
		}
		id, err := strconv.Atoi(proc)
		if err != nil {
			return nil, fmt.Errorf("%q is not a process id", proc)
		}
		secs, err := strconv.ParseFloat(at, 64)
		if err != nil || secs <= 0 {
			return nil, fmt.Errorf("%q is not a positive kill offset in seconds", at)
		}
		out = append(out, regload.Restart{
			Proc:  id,
			After: time.Duration(secs * float64(time.Second)),
		})
	}
	return out, nil
}

// parseDead parses the comma-separated -dead list; range checks live in
// Spec.Validate.
func parseDead(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("%q is not a process id", p)
		}
		out = append(out, v)
	}
	return out, nil
}
