package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"twobitreg/internal/regload"
)

// capture runs run() with stdout/stderr redirected to files and returns
// (exit code, stdout, stderr).
func capture(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	dir := t.TempDir()
	outF, err := os.Create(filepath.Join(dir, "out"))
	if err != nil {
		t.Fatal(err)
	}
	defer outF.Close()
	errF, err := os.Create(filepath.Join(dir, "err"))
	if err != nil {
		t.Fatal(err)
	}
	defer errF.Close()
	code := run(args, outF, errF)
	out, err := os.ReadFile(outF.Name())
	if err != nil {
		t.Fatal(err)
	}
	errs, err := os.ReadFile(errF.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out), string(errs)
}

// TestRegloadSmoke is the CLI equivalent of the CI loopback smoke: a tiny
// fixed-ops run must exit 0, report its ops, and satisfy the -min-ops
// gate.
func TestRegloadSmoke(t *testing.T) {
	code, out, errs := capture(t,
		"-procs", "3", "-clients", "2", "-keys", "4", "-ops", "40", "-min-ops", "40", "-seed", "3")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errs)
	}
	if !strings.Contains(out, "ops/sec") || !strings.Contains(out, "mesh:") {
		t.Fatalf("report missing from stdout:\n%s", out)
	}
}

func TestRegloadJSONOutput(t *testing.T) {
	code, out, errs := capture(t,
		"-procs", "3", "-clients", "2", "-keys", "4", "-ops", "30", "-json")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errs)
	}
	var rep map[string]any
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("stdout is not JSON: %v\n%s", err, out)
	}
	for _, key := range []string{"ops", "ops_per_sec", "read_latency", "write_latency", "mesh"} {
		if _, ok := rep[key]; !ok {
			t.Errorf("JSON report lacks %q", key)
		}
	}
	if ops, ok := rep["ops"].(float64); !ok || ops < 30 {
		t.Errorf("ops = %v, want >= 30", rep["ops"])
	}
}

// TestRegloadFlagValidation checks every rejection path exits 2 with the
// offending flag named on stderr, without standing up a cluster.
func TestRegloadFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring expected on stderr
	}{
		{"unknown flag", []string{"-no-such-flag"}, "flag provided but not defined"},
		{"bad procs", []string{"-procs", "0", "-ops", "10"}, "-procs"},
		{"bad read frac", []string{"-read-frac", "1.5", "-ops", "10"}, "-read-frac"},
		{"bad dead list", []string{"-dead", "1,x", "-ops", "10"}, "-dead"},
		{"dead majority", []string{"-dead", "0,1", "-ops", "10"}, "-dead"},
		{"negative min-ops", []string{"-ops", "10", "-min-ops", "-1"}, "-min-ops"},
		{"restart missing offset", []string{"-restart", "2", "-ops", "10"}, "-restart"},
		{"restart bad proc", []string{"-restart", "x@1", "-ops", "10"}, "-restart"},
		{"restart negative offset", []string{"-restart", "1@-2", "-ops", "10"}, "-restart"},
		{"restart out of range", []string{"-restart", "9@1", "-ops", "10"}, "-restart"},
		{"restart of dead proc", []string{"-dead", "2", "-restart", "2@1", "-ops", "10"}, "-restart"},
		{"restart breaks quorum", []string{"-dead", "2", "-restart", "1@1", "-ops", "10"}, "-restart"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, errs := capture(t, tc.args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2; stderr:\n%s", code, errs)
			}
			if !strings.Contains(errs, tc.want) {
				t.Fatalf("stderr lacks %q:\n%s", tc.want, errs)
			}
		})
	}
}

// TestRegloadMinOpsGate: a run that completes fewer ops than the gate must
// exit 1 (distinct from the usage-error exit 2).
func TestRegloadMinOpsGate(t *testing.T) {
	code, _, errs := capture(t,
		"-procs", "3", "-clients", "1", "-keys", "1", "-ops", "5", "-min-ops", "1000000")
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, errs)
	}
	if !strings.Contains(errs, "below the -min-ops gate") {
		t.Fatalf("gate message missing:\n%s", errs)
	}
}

func TestParseRestarts(t *testing.T) {
	got, err := parseRestarts(" 2@1.5 ,0@0.25")
	if err != nil {
		t.Fatal(err)
	}
	want := []regload.Restart{
		{Proc: 2, After: 1500 * time.Millisecond},
		{Proc: 0, After: 250 * time.Millisecond},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseRestarts = %+v, want %+v", got, want)
	}
	if out, err := parseRestarts(""); err != nil || out != nil {
		t.Fatalf("empty list = %v, %v", out, err)
	}
	for _, bad := range []string{"2", "@1", "2@", "2@zero", "2@0", "1@1,,2@1"} {
		if _, err := parseRestarts(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestParseDead(t *testing.T) {
	got, err := parseDead(" 0, 2 ,5")
	if err != nil || !reflect.DeepEqual(got, []int{0, 2, 5}) {
		t.Fatalf("parseDead = %v, %v", got, err)
	}
	if out, err := parseDead(""); err != nil || out != nil {
		t.Fatalf("empty list = %v, %v", out, err)
	}
	if _, err := parseDead("1,,2"); err == nil {
		t.Fatal("accepted empty element")
	}
}
