// Command bench is the claims benchmark for the served register: it
// assembles the production stack (transport.Mesh, regmap.Node behind a
// cluster.KeyedNode, shard.Server, regclient) over loopback TCP in this
// process, drives it with a seeded closed-loop generator through four
// workloads, judges every repetition for correctness outside the timed
// window, and prints every end-to-end and per-layer metric by name and
// unit. bench/README.md is the manual; BENCHMARK.json at the repository
// root is the contract. Run it from the repository root:
//
//	go run ./bench [-seed N] [-workload name] [-seconds S] [-trace 0|1] [-out file]
//
// With -workload and -trace both given, the last line of standard output
// is the single JSON object BENCHMARK.json's driver reads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// outDir holds everything a run writes: WAL temp dirs, trace files, the
// default result file. It is relative to the repository root and ignored
// by git.
const outDir = "bench/out"

// warmup precedes every measured window, on the same fresh cluster.
const warmup = time.Second

// defaultSeconds is BENCHMARK.json's run_seconds: the measured seconds of
// one workload run, split over its three windows.
const defaultSeconds = 24

func main() {
	seed := flag.Int64("seed", 1, "seed of the operation generator")
	name := flag.String("workload", "all", "one workload's name, or all")
	seconds := flag.Int("seconds", defaultSeconds, "measured seconds per workload run, split over its repetitions")
	trace := flag.String("trace", "", "0: three untraced repetitions, end-to-end metrics; 1: one untraced and one traced repetition plus the probes, per-layer metrics; unset: both")
	out := flag.String("out", filepath.Join(outDir, "results.json"), "where the machine-readable results go")
	flag.Parse()
	if err := run(*seed, *name, *seconds, *trace, *out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(seed int64, name string, seconds int, trace, out string) error {
	selected := workloads
	if name != "all" {
		wl, ok := workloadByName(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		selected = []workload{wl}
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds %d: need at least 1", seconds)
	}
	// A workload run splits its measured seconds over three windows: three
	// untraced repetitions, or an untraced one, a traced one and the probes.
	const shares = 3
	window := time.Duration(seconds) * time.Second / shares
	pl := plan{untraced: shares, traced: true}
	switch trace {
	case "":
	case "0":
		pl.traced = false
	case "1":
		pl.untraced = 1
	default:
		return fmt.Errorf("-trace %q: want 0 or 1", trace)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fmt.Errorf("%w (run from the repository root)", err)
	}
	p := params{seed: seed, warmup: warmup, window: window, outDir: outDir}
	rep := &report{Env: stampEnvironment(outDir), Seed: seed, Seconds: seconds}
	for _, wl := range selected {
		wr, err := runWorkload(wl, p, pl)
		if err != nil {
			return err
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	if pl.traced {
		values, err := runProbes(outDir, window/time.Duration(len(probeMetrics)))
		if err != nil {
			return err
		}
		rep.Probes = make(map[string]metricValue)
		for _, def := range probeMetrics {
			rep.Probes[def.Name] = metricValue{Value: values[def.Name], Unit: def.Unit}
		}
		for _, wr := range rep.Workloads {
			rep.Budget = append(rep.Budget, budget(wr, rep.Probes))
		}
	}
	printHuman(os.Stdout, rep, window)
	if err := writeJSON(out, rep); err != nil {
		return err
	}
	fmt.Printf("\nresults written to %s\n", out)
	if name != "all" && trace != "" {
		line, err := json.Marshal(resultLine(rep, pl.traced))
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// result is the one-line object the driver reads. A run that is not
// correct prints no result and exits non-zero instead, so Correct is
// always true.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine picks the single workload's metrics: every per-layer metric
// of a traced run, every end-to-end metric of an untraced one.
func resultLine(rep *report, traced bool) result {
	wr := rep.Workloads[0]
	res := result{Correct: true, Attempted: wr.Attempted, Failed: wr.Failed, Metrics: make(map[string]metricValue)}
	strip := func(v metricValue) metricValue { return metricValue{Value: v.Value, Unit: v.Unit} }
	if traced {
		for _, def := range tracedMetrics {
			res.Metrics[def.Name] = strip(wr.PerLayer[def.Name])
		}
		for _, def := range probeMetrics {
			res.Metrics[def.Name] = strip(rep.Probes[def.Name])
		}
	} else {
		for _, def := range endToEnd {
			res.Metrics[def.Name] = strip(wr.EndToEnd[def.Name])
		}
	}
	return res
}
