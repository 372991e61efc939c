package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"twobitreg/internal/explore"
)

func TestRunSweepJSON(t *testing.T) {
	var buf bytes.Buffer
	cfg := config{algs: "twobit", strategies: "pct,race", n: 5, ops: 12,
		reads: 0.5, crashes: 1, budget: 6, seed0: 1, jsonOut: true}
	if err := run(cfg, &buf); err != nil {
		t.Fatalf("clean sweep reported failure: %v\n%s", err, buf.String())
	}
	var res explore.SweepResult
	if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, buf.String())
	}
	if res.Runs != 6 || res.Clean != 6 {
		t.Fatalf("expected 6 clean runs, got %+v", res)
	}
}

func TestRunSweepCatchesMutantAndExitsNonZero(t *testing.T) {
	var buf bytes.Buffer
	cfg := config{algs: "mut-stale-read", n: 5, ops: 30, reads: 0.6,
		crashes: 1, budget: 60, seed0: 1, doShrink: true}
	err := run(cfg, &buf)
	if err == nil {
		t.Fatalf("sweep over a mutant reported success:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "FAIL xb1:mut-stale-read") {
		t.Fatalf("failure report carries no replay token:\n%s", buf.String())
	}
}

// TestRunSweepMultiWriter: a -writers sweep must default to the
// MWMR-capable algorithms, run clean, and report at least two writer
// processes per run.
func TestRunSweepMultiWriter(t *testing.T) {
	var buf bytes.Buffer
	cfg := config{strategies: "race,pct", n: 5, ops: 16, reads: 0.4,
		crashes: 1, writers: 3, budget: 4, seed0: 1, jsonOut: true}
	if err := run(cfg, &buf); err != nil {
		t.Fatalf("clean multi-writer sweep reported failure: %v\n%s", err, buf.String())
	}
	var res explore.SweepResult
	if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, buf.String())
	}
	if res.Runs != 4 || res.Clean != 4 {
		t.Fatalf("expected 4 clean runs, got %+v", res)
	}
}

// TestRunReplayMultiWriterToken: a 9-field multi-writer token replays
// through the CLI and the result reports the writer interleaving.
func TestRunReplayMultiWriterToken(t *testing.T) {
	tok := explore.Schedule{Alg: "abd-mwmr", Strategy: "race", Seed: 3, N: 5,
		Ops: 15, ReadFrac: 0.4, Crashes: 1, Writers: 3}.Token()
	if !strings.HasSuffix(tok, ":3") {
		t.Fatalf("token %q does not carry the writer count", tok)
	}
	var buf bytes.Buffer
	if err := run(config{replay: tok, jsonOut: true}, &buf); err != nil {
		t.Fatalf("replay of a clean multi-writer schedule failed: %v", err)
	}
	var res explore.Result
	if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
		t.Fatalf("replay output is not JSON: %v\n%s", err, buf.String())
	}
	if res.Token != tok || res.WriterProcs < 2 {
		t.Fatalf("replay result does not describe a multi-writer run: %+v", res)
	}
}

func TestRunReplayToken(t *testing.T) {
	tok := explore.Schedule{Alg: "twobit", Strategy: "asym", Seed: 3, N: 5,
		Ops: 15, ReadFrac: 0.5, Crashes: 1}.Token()
	var buf bytes.Buffer
	if err := run(config{replay: tok, jsonOut: true}, &buf); err != nil {
		t.Fatalf("replay of a clean schedule failed: %v", err)
	}
	var res explore.Result
	if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
		t.Fatalf("replay output is not JSON: %v\n%s", err, buf.String())
	}
	if res.Token != tok || res.Fingerprint == "" {
		t.Fatalf("replay result does not describe the token: %+v", res)
	}

	if err := run(config{replay: "not-a-token"}, &buf); err == nil {
		t.Fatal("garbage token accepted")
	}
}

// TestRunSweepIdleProcesses: -clients reaches every schedule of the sweep —
// the cold-read mutant, which only processes without operations expose,
// passes the all-clients sweep and fails the same sweep with two clients,
// with the client count in the reported tokens' 12th field.
func TestRunSweepIdleProcesses(t *testing.T) {
	cfg := config{algs: "mut-lane-coldread", strategies: "uniform,race", n: 5, ops: 30,
		reads: 0.5, crashes: 1, writers: 2, budget: 8, seed0: 1}
	var buf bytes.Buffer
	if err := run(cfg, &buf); err != nil {
		t.Fatalf("with every process a client the cold-read mutant should pass: %v\n%s", err, buf.String())
	}
	buf.Reset()
	cfg.clients = 2
	if err := run(cfg, &buf); err == nil {
		t.Fatalf("sweep with idle processes reported success:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), ":2:0:0:2\n") || !strings.Contains(buf.String(), "stalled") {
		t.Fatalf("failure report carries no 12-field token or no stalled operation:\n%s", buf.String())
	}
	if err := run(config{algs: "twobit-mwmr", n: 5, ops: 10, writers: 3, clients: 2, budget: 1, seed0: 1}, &buf); err == nil {
		t.Fatal("a sweep with more writers than clients ran")
	}
}
