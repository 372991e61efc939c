package twobitreg_test

import (
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"twobitreg/internal/explore"
)

// TestDocListsAllAlgorithms is the docs lint, both ways: every algorithm
// and mutant registered with the explorer must appear by name in doc.go's
// registered-algorithms list, and every entry of that list must name a
// registered one, so the package documentation can never silently fall
// behind the registry nor keep a deleted algorithm. CI runs this as a named
// docs-lint step.
func TestDocListsAllAlgorithms(t *testing.T) {
	t.Parallel()
	doc, err := os.ReadFile("doc.go")
	if err != nil {
		t.Fatal(err)
	}
	// A list entry is "//   - <name> — ...": matching the whole entry keeps
	// a bare substring of a longer name from satisfying the check.
	listed := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^//   - (\S+) — `).FindAllStringSubmatch(string(doc), -1) {
		listed[m[1]] = true
	}
	registered := append(explore.AlgorithmNames(), explore.MutantNames()...)
	var missing, stale []string
	for _, name := range registered {
		if !listed[name] {
			missing = append(missing, name)
		}
		delete(listed, name)
	}
	for name := range listed {
		stale = append(stale, name)
	}
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("doc.go's registered-algorithms list is missing %v — add each as a \"//   - <name> — ...\" entry", missing)
	}
	if len(stale) > 0 {
		t.Errorf("doc.go lists %v, which the registry does not have — remove each entry", stale)
	}
}

// TestDocTCPRuntime keeps the TCP-runtime documentation in lockstep with
// the code: ARCHITECTURE.md must carry the "The TCP runtime" section and
// doc.go must point at cmd/regload and the BENCH_tcp.json trajectory.
func TestDocTCPRuntime(t *testing.T) {
	t.Parallel()
	arch, err := os.ReadFile("ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(arch), "## The TCP runtime") {
		t.Fatal(`ARCHITECTURE.md lost its "## The TCP runtime" section`)
	}
	doc, err := os.ReadFile("doc.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cmd/regload", "BENCH_tcp.json"} {
		if !strings.Contains(string(doc), want) {
			t.Fatalf("doc.go does not mention %s", want)
		}
	}
}

// TestDocShardedService keeps the sharded-service documentation in
// lockstep with the code: ARCHITECTURE.md must carry the "Sharded
// service" section and doc.go must point at the shard/regclient packages,
// the one assembly (shard.Member), and the E-SH1 experiment.
func TestDocShardedService(t *testing.T) {
	t.Parallel()
	arch, err := os.ReadFile("ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(arch), "## Sharded service") {
		t.Fatal(`ARCHITECTURE.md lost its "## Sharded service" section`)
	}
	doc, err := os.ReadFile("doc.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"internal/shard", "internal/regclient", "shard.Member", "E-SH1"} {
		if !strings.Contains(string(doc), want) {
			t.Fatalf("doc.go does not mention %s", want)
		}
	}
}

// TestDocDurability keeps the durability documentation in lockstep with
// the code: ARCHITECTURE.md must carry the "Durability" section and doc.go
// must point at the storage package and the BENCH_wal.json trajectory.
func TestDocDurability(t *testing.T) {
	t.Parallel()
	arch, err := os.ReadFile("ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(arch), "## Durability") {
		t.Fatal(`ARCHITECTURE.md lost its "## Durability" section`)
	}
	doc, err := os.ReadFile("doc.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"internal/storage", "BENCH_wal.json", "crashrestart"} {
		if !strings.Contains(string(doc), want) {
			t.Fatalf("doc.go does not mention %s", want)
		}
	}
}

// TestDocLinksArchitecture keeps the doc.go pointer to ARCHITECTURE.md and
// the document itself from drifting apart.
func TestDocLinksArchitecture(t *testing.T) {
	t.Parallel()
	doc, err := os.ReadFile("doc.go")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(doc), "ARCHITECTURE.md") {
		t.Fatal("doc.go does not reference ARCHITECTURE.md")
	}
	if _, err := os.Stat("ARCHITECTURE.md"); err != nil {
		t.Fatalf("ARCHITECTURE.md missing: %v", err)
	}
}
