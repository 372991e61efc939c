package regload_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"twobitreg/internal/regload"
)

func TestSpecValidate(t *testing.T) {
	base := func() regload.Spec {
		return regload.Spec{Procs: 3, Clients: 2, Keys: 4, ReadFrac: 0.5, Ops: 10}
	}
	cases := []struct {
		name   string
		mutate func(*regload.Spec)
		field  string // "" = valid
	}{
		{"valid", func(s *regload.Spec) {}, ""},
		{"zero procs", func(s *regload.Spec) { s.Procs = 0 }, "procs"},
		{"too many procs", func(s *regload.Spec) { s.Procs = 256 }, "procs"},
		{"zero clients", func(s *regload.Spec) { s.Clients = 0 }, "clients"},
		{"zero keys", func(s *regload.Spec) { s.Keys = 0 }, "keys"},
		{"read frac above 1", func(s *regload.Spec) { s.ReadFrac = 1.5 }, "read-frac"},
		{"read frac negative", func(s *regload.Spec) { s.ReadFrac = -0.1 }, "read-frac"},
		{"no bound", func(s *regload.Spec) { s.Ops = 0 }, "duration"},
		{"both bounds", func(s *regload.Spec) { s.Duration = time.Second }, "duration"},
		{"value too big", func(s *regload.Spec) { s.ValueSize = 1<<20 + 1 }, "value-size"},
		{"majority dead", func(s *regload.Spec) { s.Dead = []int{0, 1} }, "dead"},
		{"dead out of range", func(s *regload.Spec) { s.Dead = []int{3} }, "dead"},
		{"dead negative", func(s *regload.Spec) { s.Dead = []int{-1} }, "dead"},
		{"dead plus restart breaks quorum", func(s *regload.Spec) {
			s.Dead = []int{2}
			s.Restart = []regload.Restart{{Proc: 1, After: time.Millisecond}}
		}, "restart"},
		{"restart out of range", func(s *regload.Spec) {
			s.Restart = []regload.Restart{{Proc: 3, After: time.Millisecond}}
		}, "restart"},
		{"restart of dead process", func(s *regload.Spec) {
			s.Procs = 5
			s.Dead = []int{1}
			s.Restart = []regload.Restart{{Proc: 1, After: time.Millisecond}}
		}, "restart"},
		{"restart listed twice", func(s *regload.Spec) {
			s.Procs = 5
			s.Restart = []regload.Restart{
				{Proc: 1, After: time.Millisecond},
				{Proc: 1, After: 2 * time.Millisecond},
			}
		}, "restart"},
		{"restart without kill offset", func(s *regload.Spec) {
			s.Restart = []regload.Restart{{Proc: 1}}
		}, "restart"},
		{"restart negative downtime", func(s *regload.Spec) {
			s.Restart = []regload.Restart{{Proc: 1, After: time.Millisecond, Down: -time.Second}}
		}, "restart"},
		{"two shards", func(s *regload.Spec) { s.Procs = 6; s.Shards = 2 }, ""},
		{"zero shards defaults", func(s *regload.Spec) { s.Shards = 0 }, ""},
		{"negative shards", func(s *regload.Spec) { s.Shards = -1 }, "shards"},
		{"procs not divisible", func(s *regload.Spec) { s.Shards = 2 }, "shards"},
		{"more shards than procs", func(s *regload.Spec) { s.Procs = 2; s.Shards = 4 }, "shards"},
		{"dead majority within one shard", func(s *regload.Spec) {
			// 6 procs over 2 shards = 3 per shard: procs 3,4 are a majority
			// of shard 1 even though they are a minority of the cluster.
			s.Procs = 6
			s.Shards = 2
			s.Dead = []int{3, 4}
		}, "dead"},
		{"dead minority per shard", func(s *regload.Spec) {
			s.Procs = 6
			s.Shards = 2
			s.Dead = []int{0, 3}
		}, ""},
		{"restart breaks one shard's quorum", func(s *regload.Spec) {
			s.Procs = 6
			s.Shards = 2
			s.Dead = []int{4}
			s.Restart = []regload.Restart{{Proc: 5, After: time.Millisecond}}
		}, "restart"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := base()
			tc.mutate(&spec)
			err := spec.Validate()
			if tc.field == "" {
				if err != nil {
					t.Fatalf("valid spec rejected: %v", err)
				}
				return
			}
			var se *regload.SpecError
			if !errors.As(err, &se) {
				t.Fatalf("want *SpecError, got %v", err)
			}
			if se.Field != tc.field {
				t.Fatalf("flagged field %q, want %q (%v)", se.Field, tc.field, err)
			}
		})
	}
	// A duplicate-dead spec needs a majority-safe cluster to reach the
	// uniqueness check.
	spec := regload.Spec{Procs: 5, Clients: 1, Keys: 1, Ops: 1, Dead: []int{1, 1}}
	var se *regload.SpecError
	if err := spec.Validate(); !errors.As(err, &se) || se.Field != "dead" {
		t.Fatalf("duplicate dead entry not flagged: %v", err)
	}
}

// TestRunShortLoad is the in-process smoke of the whole harness: a real
// 3-process TCP cluster, a handful of ops, a coherent report.
func TestRunShortLoad(t *testing.T) {
	rep, err := regload.Run(regload.Spec{
		Procs: 3, Clients: 4, Keys: 8, ReadFrac: 0.5, Ops: 60, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops < 60 {
		t.Fatalf("completed %d ops, budget was 60", rep.Ops)
	}
	if rep.OpErrors != 0 || rep.SendErrs != 0 {
		t.Fatalf("errors in a healthy run: op=%d send=%d", rep.OpErrors, rep.SendErrs)
	}
	if rep.Reads+rep.Writes != rep.Ops {
		t.Fatalf("reads %d + writes %d != ops %d", rep.Reads, rep.Writes, rep.Ops)
	}
	if rep.OpsPerSec <= 0 {
		t.Fatal("no throughput computed")
	}
	if got := rep.ReadHistogram().Count() + rep.WriteHistogram().Count(); got != rep.Ops {
		t.Fatalf("histograms hold %d samples for %d ops", got, rep.Ops)
	}
	if rep.Mesh.FramesSent == 0 || rep.Mesh.FramesReceived == 0 {
		t.Fatalf("no mesh traffic recorded: %+v", rep.Mesh)
	}
	if rep.Mesh.DecodeErrors != 0 {
		t.Fatalf("%d decode errors", rep.Mesh.DecodeErrors)
	}
	s := rep.String()
	for _, want := range []string{"ops/sec", "read  latency", "write latency", "mesh:"} {
		if !strings.Contains(s, want) {
			t.Errorf("report rendering lacks %q:\n%s", want, s)
		}
	}
}

// TestRunDeadPeer kills a minority and asserts the run still completes its
// budget promptly — the live peers must never block behind the dead one's
// dial cycle.
func TestRunDeadPeer(t *testing.T) {
	start := time.Now()
	rep, err := regload.Run(regload.Spec{
		Procs: 3, Clients: 4, Keys: 8, ReadFrac: 0.5, Ops: 60, Seed: 7, Dead: []int{2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("dead-peer run took %s — head-of-line blocking is back", elapsed)
	}
	if rep.Ops < 60 {
		t.Fatalf("completed %d ops with a dead minority, budget was 60", rep.Ops)
	}
	if rep.OpErrors != 0 {
		t.Fatalf("%d op errors", rep.OpErrors)
	}
	if !reflect.DeepEqual(rep.Dead, []int{2}) {
		t.Errorf("report lost the dead list: %v", rep.Dead)
	}
}

// TestRunSharded splits the cluster into two independent quorum groups and
// asserts the keyed workload completes across both, including with one
// process down in each shard.
func TestRunSharded(t *testing.T) {
	rep, err := regload.Run(regload.Spec{
		Procs: 6, Shards: 2, Clients: 4, Keys: 16, ReadFrac: 0.5, Ops: 80, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops < 80 || rep.OpErrors != 0 {
		t.Fatalf("sharded run: ops=%d errors=%d", rep.Ops, rep.OpErrors)
	}
	if rep.Shards != 2 {
		t.Fatalf("report shards=%d", rep.Shards)
	}
	if !strings.Contains(rep.String(), "shards=2") {
		t.Errorf("report rendering lacks the shard count:\n%s", rep.String())
	}

	// One process down per shard: both groups still hold majorities.
	rep, err = regload.Run(regload.Spec{
		Procs: 6, Shards: 2, Clients: 4, Keys: 16, ReadFrac: 0.5, Ops: 80, Seed: 7,
		Dead: []int{1, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops < 80 || rep.OpErrors != 0 {
		t.Fatalf("sharded dead-peer run: ops=%d errors=%d", rep.Ops, rep.OpErrors)
	}
}

// TestRunShardedRestart crashes and revives one member of one shard while
// the other shard keeps serving — the fault stays contained.
func TestRunShardedRestart(t *testing.T) {
	rep, err := regload.Run(regload.Spec{
		Procs: 6, Shards: 2, Clients: 6, Keys: 16, ReadFrac: 0.5, Seed: 7,
		Duration: 1200 * time.Millisecond,
		Restart:  []regload.Restart{{Proc: 4, After: 200 * time.Millisecond, Down: 200 * time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Restarted, []int{4}) {
		t.Fatalf("restarted %v, want [4]", rep.Restarted)
	}
	if rep.RestartErrs != 0 || rep.LostAckWrites != 0 {
		t.Fatalf("restart errors=%d lost acked writes=%d", rep.RestartErrs, rep.LostAckWrites)
	}
	if rep.Ops == 0 {
		t.Fatal("no operations completed around the restart")
	}
}

// TestRunRestart is the kill-and-revive acceptance run: a process crashes
// mid-load over real loopback TCP, loses its unsynced tail, and is revived
// from its durable log. The run must report the revival, zero lost
// acknowledged writes, zero revival errors — and the peers' meshes must
// have counted the victim's reconnect.
func TestRunRestart(t *testing.T) {
	rep, err := regload.Run(regload.Spec{
		Procs: 3, Clients: 6, Keys: 8, ReadFrac: 0.5, Seed: 7,
		Duration: 1200 * time.Millisecond,
		Restart:  []regload.Restart{{Proc: 2, After: 200 * time.Millisecond, Down: 200 * time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Restarted, []int{2}) {
		t.Fatalf("restarted %v, want [2]", rep.Restarted)
	}
	if rep.RestartErrs != 0 {
		t.Fatalf("%d restart errors", rep.RestartErrs)
	}
	if rep.LostAckWrites != 0 {
		t.Fatalf("%d acknowledged writes lost across the crash", rep.LostAckWrites)
	}
	if rep.Ops == 0 {
		t.Fatal("no operations completed around the restart")
	}
	if rep.Mesh.Reconnects == 0 {
		t.Fatalf("no reconnect counted after the revival: %s", rep.Mesh)
	}
	if !strings.Contains(rep.String(), "restarts: revived [2]") {
		t.Errorf("report rendering lacks the restart line:\n%s", rep.String())
	}
}
