package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// stream builds a minimal go-test-json bench stream with the given
// benchmark lines, split across output events the way `go test -json`
// splits them (name event, then measurements event).
func stream(lines ...string) string {
	var b strings.Builder
	b.WriteString(`{"Action":"start","Package":"p"}` + "\n")
	ev := func(output string) {
		raw, _ := json.Marshal(struct {
			Action  string
			Package string
			Output  string
		}{"output", "p", output})
		b.Write(raw)
		b.WriteByte('\n')
	}
	for _, l := range lines {
		parts := strings.SplitN(l, "\t", 2)
		ev(parts[0] + "\t")
		ev(parts[1] + "\n")
	}
	return b.String()
}

func TestParseStreamSplitEvents(t *testing.T) {
	t.Parallel()
	res, err := parseStream(strings.NewReader(stream(
		"BenchmarkA/x-8\t  10\t 123.4 ns/op\t 7 msgs/op",
		"BenchmarkB-16\t  3\t 99 ns/op",
	)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %v", len(res), res)
	}
	a := res["BenchmarkA/x"]
	if a["ns/op"] != 123.4 || a["msgs/op"] != 7 {
		t.Fatalf("BenchmarkA/x = %v", a)
	}
	if res["BenchmarkB"]["ns/op"] != 99 {
		t.Fatalf("BenchmarkB = %v", res["BenchmarkB"])
	}
}

func TestParseFilesMergesBaselines(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := write("a.json", stream("BenchmarkA\t1\t10 ns/op"))
	b := write("b.json", stream("BenchmarkB\t1\t20 ns/op", "BenchmarkA\t1\t30 ns/op"))
	res, err := parseFiles([]string{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("merged %d benchmarks, want 2", len(res))
	}
	// Later files win on collision.
	if res["BenchmarkA"]["ns/op"] != 30 {
		t.Fatalf("BenchmarkA = %v, want the later file's 30", res["BenchmarkA"])
	}
}

func TestParseGate(t *testing.T) {
	t.Parallel()
	g, err := parseGate("msgs/op=0.30")
	if err != nil || g.metric != "msgs/op" || g.maxRegress != 0.30 {
		t.Fatalf("parseGate = %+v, %v", g, err)
	}
	// The metric may itself contain '=' up to the last one.
	if g, err := parseGate("a=b=1.5"); err != nil || g.metric != "a=b" || g.maxRegress != 1.5 {
		t.Fatalf("parseGate(a=b=1.5) = %+v, %v", g, err)
	}
	for _, bad := range []string{"", "msgs/op", "=0.3", "msgs/op=", "msgs/op=-1", "msgs/op=x"} {
		if _, err := parseGate(bad); err == nil {
			t.Fatalf("parseGate(%q) accepted", bad)
		}
	}
}

func TestCompareReportsAllFailuresPerMetric(t *testing.T) {
	t.Parallel()
	oldRes := map[string]result{
		"BenchmarkA": {"ns/op": 100, "msgs/op": 10},
		"BenchmarkB": {"ns/op": 100, "msgs/op": 10},
		"BenchmarkC": {"ns/op": 100},
	}
	newRes := map[string]result{
		"BenchmarkA": {"ns/op": 500, "msgs/op": 20}, // regresses both gates
		"BenchmarkB": {"ns/op": 110, "msgs/op": 11}, // within both
		"BenchmarkD": {"ns/op": 1},                  // new
	}
	gates := []gate{{"msgs/op", 0.30}, {"ns/op", 1.0}}
	rows, failures := compare(oldRes, newRes, gates)
	// A regresses msgs/op and ns/op; C is missing under ns/op (its only
	// metric) — three failures, ALL reported, not first-error-wins.
	if failures != 3 {
		t.Fatalf("failures = %d, want 3 (rows: %+v)", failures, rows)
	}
	statuses := map[string]string{}
	for _, r := range rows {
		statuses[r.metric+"|"+r.name] = r.status
	}
	for key, want := range map[string]string{
		"msgs/op|BenchmarkA": "REGRESS",
		"msgs/op|BenchmarkB": "ok",
		"ns/op|BenchmarkA":   "REGRESS",
		"ns/op|BenchmarkB":   "ok",
		"ns/op|BenchmarkC":   "MISSING",
		"|BenchmarkD":        "new",
	} {
		if statuses[key] != want {
			t.Fatalf("%s = %q, want %q (rows: %+v)", key, statuses[key], want, rows)
		}
	}
}

// TestRunEndToEnd exercises the CLI surface: multiple -baseline and -new
// files, multiple -gate flags, a per-metric table on stdout, and exit codes
// 0 (clean) and 1 (regression).
func TestRunEndToEnd(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base1 := write("base1.json", stream("BenchmarkA\t1\t100 ns/op\t10 msgs/op"))
	base2 := write("base2.json", stream("BenchmarkB\t1\t100 ns/op\t10 msgs/op"))
	freshOK := write("fresh_ok.json", stream(
		"BenchmarkA\t1\t120 ns/op\t10 msgs/op",
		"BenchmarkB\t1\t90 ns/op\t9 msgs/op"))
	freshBad := write("fresh_bad.json", stream(
		"BenchmarkA\t1\t120 ns/op\t20 msgs/op",
		"BenchmarkB\t1\t900 ns/op\t9 msgs/op"))

	var out, errOut strings.Builder
	code := run([]string{
		"-baseline", base1, "-baseline", base2, "-new", freshOK,
		"-gate", "msgs/op=0.30", "-gate", "ns/op=1.0",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("clean comparison exited %d: %s%s", code, out.String(), errOut.String())
	}

	out.Reset()
	errOut.Reset()
	code = run([]string{
		"-baseline", base1, "-baseline", base2, "-new", freshBad,
		"-gate", "msgs/op=0.30", "-gate", "ns/op=1.0",
	}, &out, &errOut)
	if code != 1 {
		t.Fatalf("regressing comparison exited %d, want 1", code)
	}
	got := out.String()
	for _, want := range []string{"== msgs/op ==", "== ns/op ==", "REGRESS"} {
		if !strings.Contains(got, want) {
			t.Fatalf("table missing %q:\n%s", want, got)
		}
	}
	if !strings.Contains(errOut.String(), "2 regression(s)") {
		t.Fatalf("stderr = %q, want both regressions counted", errOut.String())
	}

	// One baseline, one gate: the single-file form.
	out.Reset()
	errOut.Reset()
	code = run([]string{"-baseline", base1, "-new", freshOK, "-gate", "msgs/op=0.30"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("single-file form exited %d: %s%s", code, out.String(), errOut.String())
	}

	// A comparison that gates nothing is a usage error, not a pass.
	out.Reset()
	errOut.Reset()
	code = run([]string{"-baseline", base1, "-new", freshBad}, &out, &errOut)
	if code != 2 || !strings.Contains(errOut.String(), "usage: benchdiff") {
		t.Fatalf("gateless invocation exited %d with %q, want 2 and a usage line", code, errOut.String())
	}
}

// TestParseBenchmemAllocs pins the -benchmem line shape: B/op and
// allocs/op ride the same "value unit" pairs as ns/op, so a benchmem
// report parses into first-class gateable metrics without special cases.
func TestParseBenchmemAllocs(t *testing.T) {
	t.Parallel()
	res, err := parseStream(strings.NewReader(stream(
		"BenchmarkSweepThroughput/twobit-4\t  2538\t 908258 ns/op\t 1101 sched/s\t 102659 B/op\t 888 allocs/op",
	)))
	if err != nil {
		t.Fatal(err)
	}
	r := res["BenchmarkSweepThroughput/twobit"]
	if r == nil {
		t.Fatalf("benchmark not parsed: %v", res)
	}
	for metric, want := range map[string]float64{
		"ns/op": 908258, "sched/s": 1101, "B/op": 102659, "allocs/op": 888,
	} {
		if r[metric] != want {
			t.Fatalf("%s = %v, want %v (parsed %v)", metric, r[metric], want, r)
		}
	}
}

// TestAllocsGateFailureTable gates allocs/op alongside ns/op and checks
// the per-metric failure table: an alloc regression must fail under its
// own gate and be reported in the allocs/op section, while the passing
// ns/op comparison for the same benchmark stays "ok" in its section.
func TestAllocsGateFailureTable(t *testing.T) {
	t.Parallel()
	oldRes := map[string]result{
		"BenchmarkSweep": {"ns/op": 1000, "allocs/op": 100},
		"BenchmarkRun":   {"ns/op": 500, "allocs/op": 50},
	}
	newRes := map[string]result{
		"BenchmarkSweep": {"ns/op": 1050, "allocs/op": 200}, // allocs doubled
		"BenchmarkRun":   {"ns/op": 510, "allocs/op": 51},
	}
	rows, failures := compare(oldRes, newRes, []gate{
		{metric: "ns/op", maxRegress: 1.0},
		{metric: "allocs/op", maxRegress: 0.30},
	})
	if failures != 1 {
		t.Fatalf("failures = %d, want exactly the allocs/op regression", failures)
	}
	byKey := map[string]row{}
	for _, r := range rows {
		byKey[r.metric+"|"+r.name] = r
	}
	if r := byKey["allocs/op|BenchmarkSweep"]; r.status != "REGRESS" {
		t.Fatalf("allocs/op regression not flagged: %+v", r)
	}
	if r := byKey["ns/op|BenchmarkSweep"]; r.status != "ok" {
		t.Fatalf("passing ns/op comparison misreported: %+v", r)
	}
	if r := byKey["allocs/op|BenchmarkRun"]; r.status != "ok" {
		t.Fatalf("within-bounds allocs comparison misreported: %+v", r)
	}
}
