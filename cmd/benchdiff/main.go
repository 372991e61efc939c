// Command benchdiff compares benchmark reports produced by
// `go test -json -bench ...` (the BENCH_*.json perf-trajectory files) and
// fails on regressions, so the committed baselines actually gate CI instead
// of being write-only artifacts.
//
// Usage:
//
//	benchdiff -baseline BENCH_check.json -baseline BENCH_mwmr.json \
//	          -new fresh/BENCH_check.json -new fresh/BENCH_mwmr.json \
//	          -gate 'msgs/op=0.30' -gate 'ns/op=1.0'
//
// Every -baseline file merges into one baseline set and every -new file
// into one fresh set, so one invocation gates the whole trajectory. Each
// -gate names a metric and its maximum tolerated relative regression; all
// benchmarks are compared under every gate and ALL failures are reported in
// one per-metric table before the non-zero exit — no first-error-wins.
// msgs/op is deterministic (seeded workloads), so its gate is exact; ns/op
// guards against machine-class-sized slowdowns. Benchmarks present only in
// the baseline fail too (coverage loss); new benchmarks are reported and
// pass. At least one -gate is required: a comparison that gates nothing
// exits 2 with a usage line rather than passing vacuously.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// result is one benchmark's metric values, e.g. {"ns/op": 123, "msgs/op": 45.6}.
type result map[string]float64

var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+(.*)$`)

// parseStream reads one `go test -json` stream and collects benchmark
// results. A single benchmark line is often split across several output
// events (the name with trailing tab, then the measurements), so the stream
// is first reassembled into per-package text. Repeated runs of the same
// benchmark keep the last value.
func parseStream(r io.Reader) (map[string]result, error) {
	text := make(map[string]*strings.Builder)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if len(line) == 0 {
			continue
		}
		var ev struct {
			Action  string `json:"Action"`
			Package string `json:"Package"`
			Output  string `json:"Output"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			// Tolerate plain-text bench output mixed in.
			ev.Action, ev.Output = "output", line+"\n"
		}
		if ev.Action != "output" {
			continue
		}
		b := text[ev.Package]
		if b == nil {
			b = &strings.Builder{}
			text[ev.Package] = b
		}
		b.WriteString(ev.Output)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make(map[string]result)
	for _, b := range text {
		for _, line := range strings.Split(b.String(), "\n") {
			m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
			if m == nil {
				continue
			}
			name := normalize(m[1])
			fields := strings.Fields(m[2])
			r := result{}
			for i := 0; i+1 < len(fields); i += 2 {
				v, err := strconv.ParseFloat(fields[i], 64)
				if err != nil {
					continue
				}
				r[fields[i+1]] = v
			}
			if len(r) > 0 {
				out[name] = r
			}
		}
	}
	return out, nil
}

// parseFiles parses and merges several report files. A benchmark appearing
// in two files keeps the later file's values.
func parseFiles(paths []string) (map[string]result, error) {
	merged := make(map[string]result)
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		res, err := parseStream(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for name, r := range res {
			merged[name] = r
		}
	}
	return merged, nil
}

// normalize strips the trailing -GOMAXPROCS suffix so reports from
// different machines align.
func normalize(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// gate is one metric's regression bound.
type gate struct {
	metric     string
	maxRegress float64
}

// parseGate parses "metric=threshold", e.g. "msgs/op=0.30".
func parseGate(s string) (gate, error) {
	i := strings.LastIndex(s, "=")
	if i <= 0 || i == len(s)-1 {
		return gate{}, fmt.Errorf("benchdiff: gate %q is not metric=max-regress", s)
	}
	v, err := strconv.ParseFloat(s[i+1:], 64)
	if err != nil || v < 0 {
		return gate{}, fmt.Errorf("benchdiff: gate %q has a bad threshold", s)
	}
	return gate{metric: s[:i], maxRegress: v}, nil
}

// row is one comparison outcome for the report table.
type row struct {
	status string // "ok", "REGRESS", "MISSING", "new"
	name   string
	metric string
	old    float64
	new    float64
	delta  float64
	bound  float64
}

// compare evaluates every gate over every baseline benchmark and returns
// the full table plus the failure count — all failures, not the first.
func compare(oldRes, newRes map[string]result, gates []gate) ([]row, int) {
	names := make([]string, 0, len(oldRes))
	for name := range oldRes {
		names = append(names, name)
	}
	sort.Strings(names)
	var rows []row
	failures := 0
	for _, g := range gates {
		for _, name := range names {
			or := oldRes[name]
			ov, hasOld := or[g.metric]
			if !hasOld {
				continue
			}
			nr, ok := newRes[name]
			if !ok {
				rows = append(rows, row{status: "MISSING", name: name, metric: g.metric, old: ov})
				failures++
				continue
			}
			nv, hasNew := nr[g.metric]
			if !hasNew {
				rows = append(rows, row{status: "MISSING", name: name, metric: g.metric, old: ov})
				failures++
				continue
			}
			delta := 0.0
			if ov > 0 {
				delta = (nv - ov) / ov
			}
			status := "ok"
			if nv > ov*(1+g.maxRegress) {
				status = "REGRESS"
				failures++
			}
			rows = append(rows, row{status: status, name: name, metric: g.metric,
				old: ov, new: nv, delta: delta, bound: g.maxRegress})
		}
	}
	var extra []string
	for name := range newRes {
		if _, ok := oldRes[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		rows = append(rows, row{status: "new", name: name})
	}
	return rows, failures
}

// render prints the per-metric table.
func render(w io.Writer, rows []row) {
	metric := ""
	for _, r := range rows {
		if r.status == "new" {
			fmt.Fprintf(w, "new      %s (not in baseline)\n", r.name)
			continue
		}
		if r.metric != metric {
			metric = r.metric
			fmt.Fprintf(w, "== %s ==\n", metric)
		}
		switch r.status {
		case "MISSING":
			fmt.Fprintf(w, "MISSING  %-64s (in baseline, not in fresh run)\n", r.name)
		default:
			fmt.Fprintf(w, "%-8s %-64s old=%.4g new=%.4g (%+.1f%%, bound +%.0f%%)\n",
				r.status, r.name, r.old, r.new, 100*r.delta, 100*r.bound)
		}
	}
}

// stringList collects a repeatable flag.
type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }

func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var baselines, newPaths, gateSpecs stringList
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Var(&baselines, "baseline", "baseline report (repeatable; all merge into one baseline set)")
	fs.Var(&newPaths, "new", "fresh report to compare against the baseline (repeatable)")
	fs.Var(&gateSpecs, "gate", "metric=max-regress gate, e.g. 'msgs/op=0.30' (repeatable)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if len(baselines) == 0 || len(newPaths) == 0 || len(gateSpecs) == 0 {
		fmt.Fprintln(stderr, "usage: benchdiff -baseline old.json... -new fresh.json... -gate metric=max-regress...")
		fmt.Fprintln(stderr, "benchdiff: at least one -baseline, one -new and one -gate are required")
		return 2
	}
	var gates []gate
	for _, g := range gateSpecs {
		parsed, err := parseGate(g)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		gates = append(gates, parsed)
	}
	oldRes, err := parseFiles(baselines)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	newRes, err := parseFiles(newPaths)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	if len(oldRes) == 0 {
		fmt.Fprintf(stderr, "benchdiff: no benchmark results in baseline(s) %s\n", strings.Join(baselines, ", "))
		return 2
	}
	rows, failures := compare(oldRes, newRes, gates)
	render(stdout, rows)
	if failures > 0 {
		fmt.Fprintf(stderr, "benchdiff: %d regression(s)/missing benchmark(s) across %d gate(s)\n", failures, len(gates))
		return 1
	}
	fmt.Fprintf(stdout, "benchdiff: %d benchmarks within bounds across %d gate(s)\n", len(oldRes), len(gates))
	return 0
}
