// Command regexplore runs budgeted adversarial schedule-exploration sweeps
// over the register algorithms: every selected algorithm runs under every
// selected adversary strategy across consecutive seeds, each run is checked
// for atomicity (and, for the two-bit register, the proof invariants), and
// every failure is reported with a one-line replay token that reproduces it
// byte for byte via
//
//	go test ./internal/explore -run TestReplay -replay=<token>
//
// Usage:
//
//	regexplore [-algs twobit,abd] [-strategies slowquorum,pct] [-n 5]
//	           [-ops 30] [-reads 0.6] [-crashes 1] [-writers 1] [-pct d]
//	           [-skew k] [-clients c] [-budget 100] [-seed0 1] [-workers w]
//	           [-shrink] [-json]
//	regexplore -replay <token> [-json]
//
// -writers 2..4 sweeps true multi-writer workloads (concurrent writer
// streams with distinct tagged values, judged by the near-linear MWMR
// cluster checker — or, for the keyed regmap algorithms, per key); the
// algorithm list then defaults to the MWMR-capable algorithms. -pct d
// upgrades the pct strategy to a true d-bounded PCT (per-process
// priorities with d seeded change points; the depth travels in a 10th
// token field). -skew k gives writer 0 k times each peer's write rate (an
// 11th token field; requires -writers >= 2). -clients c lets only pids
// 0..c-1 invoke operations (a 12th token field; c >= -writers): the other
// processes relay and never send a READ, which is where the lanes' lazy
// links live. The sweep exits non-zero if
// any schedule failed; -shrink additionally minimizes each failing
// descriptor before reporting it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"twobitreg/internal/explore"
)

type config struct {
	algs, strategies  string
	n, ops            int
	reads             float64
	crashes, budget   int
	writers, pct      int
	skew, workers     int
	clients           int
	seed0             int64
	jsonOut, doShrink bool
	replay            string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.algs, "algs", "", "comma-separated algorithms (default: all correct ones; see also mutants mut-*)")
	flag.StringVar(&cfg.strategies, "strategies", "", "comma-separated adversary strategies (default: all)")
	flag.IntVar(&cfg.n, "n", 5, "number of processes")
	flag.IntVar(&cfg.ops, "ops", 30, "operations per run")
	flag.Float64Var(&cfg.reads, "reads", 0.6, "read fraction in [0,1]")
	flag.IntVar(&cfg.crashes, "crashes", 1, "non-writer crashes per run (capped at t)")
	flag.IntVar(&cfg.writers, "writers", 1, "concurrent writers; >= 2 sweeps multi-writer workloads over MWMR-capable algorithms")
	flag.IntVar(&cfg.pct, "pct", 0, "priority change points for the pct strategy (d-bounded PCT); 0 keeps the legacy random-tie mode")
	flag.IntVar(&cfg.skew, "skew", 0, "hot-writer skew: writer 0 writes this multiple of each peer's rate (>= 2; needs -writers >= 2)")
	flag.IntVar(&cfg.clients, "clients", 0, "processes that invoke operations (pids 0..clients-1; the rest only relay); 0 means all")
	flag.IntVar(&cfg.budget, "budget", 100, "total runs in the sweep")
	flag.IntVar(&cfg.workers, "workers", 1, "sweep worker goroutines; negative uses GOMAXPROCS; output is identical at any count")
	flag.Int64Var(&cfg.seed0, "seed0", 1, "first seed")
	flag.BoolVar(&cfg.jsonOut, "json", false, "emit JSON instead of text")
	flag.BoolVar(&cfg.doShrink, "shrink", false, "minimize failing schedules before reporting")
	flag.StringVar(&cfg.replay, "replay", "", "replay one token instead of sweeping")
	flag.Parse()

	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "regexplore:", err)
		os.Exit(1)
	}
}

func run(cfg config, out io.Writer) error {
	if cfg.replay != "" {
		return runReplay(cfg, out)
	}
	spec := explore.SweepSpec{
		Algs: csv(cfg.algs), Strategies: csv(cfg.strategies),
		N: cfg.n, Ops: cfg.ops, ReadFrac: cfg.reads, Crashes: cfg.crashes,
		Writers: cfg.writers, PCT: cfg.pct, Skew: cfg.skew, Clients: cfg.clients,
		Budget: cfg.budget, Seed0: cfg.seed0, Workers: cfg.workers,
	}
	res, err := explore.Sweep(spec)
	if err != nil {
		return err
	}
	if cfg.doShrink {
		for i, f := range res.Failures {
			if _, small, err := explore.Shrink(f.Schedule, 60); err == nil {
				res.Failures[i] = small
			}
		}
	}
	if cfg.jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(out, "explored      %d schedules (%d clean, %d failing)\n", res.Runs, res.Clean, len(res.Failures))
		for _, f := range res.Failures {
			fmt.Fprintf(out, "FAIL %s\n     %s\n", f.Token, f.Violation())
		}
		if len(res.Failures) == 0 {
			fmt.Fprintln(out, "verdict       every explored schedule is atomic ✓")
		}
	}
	if len(res.Failures) > 0 {
		return fmt.Errorf("%d of %d schedules failed", len(res.Failures), res.Runs)
	}
	return nil
}

func runReplay(cfg config, out io.Writer) error {
	s, err := explore.ParseToken(cfg.replay)
	if err != nil {
		return err
	}
	r, err := explore.Run(s)
	if err != nil {
		return err
	}
	if cfg.jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(out, "replayed      %s\n", r.Token)
		fmt.Fprintf(out, "extent        %d events, %d msgs, end time %.3g\n", r.Events, r.Msgs, r.EndTime)
		fmt.Fprintf(out, "operations    %d completed, %d pending\n", r.Completed, r.Pending)
		if r.ReadRounds > 0 || r.WriteRounds > 0 {
			fmt.Fprintf(out, "rounds/op     read %.2f, write %.2f\n", r.ReadRounds, r.WriteRounds)
			fmt.Fprintf(out, "latency (Δ)   read %.2f, write %.2f\n", r.ReadLatency, r.WriteLatency)
		}
		fmt.Fprintf(out, "fingerprint   %s\n", r.Fingerprint)
	}
	if r.Failed() {
		return fmt.Errorf("replayed failure: %s", r.Violation())
	}
	if !cfg.jsonOut {
		fmt.Fprintln(out, "verdict       clean ✓")
	}
	return nil
}

func csv(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
