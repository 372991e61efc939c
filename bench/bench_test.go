package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"twobitreg/internal/cluster"
	"twobitreg/internal/core"
	"twobitreg/internal/proto"
	"twobitreg/internal/regmap"
	"twobitreg/internal/storage"
)

// TestWorkloadsEmitEveryMetric runs every workload for 300 ms, untraced
// and traced, and holds the result to the metric tables and to the layer
// bypasses the README promises.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.Name, func(t *testing.T) {
			t.Parallel()
			p := params{seed: 7, warmup: 100 * time.Millisecond, window: 300 * time.Millisecond, outDir: t.TempDir()}
			wr, err := runWorkload(wl, p, plan{untraced: 1, traced: true})
			if err != nil {
				t.Fatal(err)
			}
			if wr.Failed != 0 || wr.Attempted == 0 {
				t.Fatalf("%d of %d operations failed", wr.Failed, wr.Attempted)
			}
			for _, def := range endToEnd {
				if v, ok := wr.EndToEnd[def.Name]; !ok || v.Unit != def.Unit || v.Value <= 0 {
					t.Errorf("end-to-end %s = %+v (present %v), want a positive value in %s", def.Name, v, ok, def.Unit)
				}
			}
			if v, ok := wr.EndToEnd[failedShare]; !ok || v.Value != 0 {
				t.Errorf("%s = %+v (present %v), want 0", failedShare, v, ok)
			}
			for _, def := range tracedMetrics {
				if v, ok := wr.PerLayer[def.Name]; !ok || v.Unit != def.Unit {
					t.Errorf("per-layer %s = %+v (present %v), want unit %s", def.Name, v, ok, def.Unit)
				}
			}
			layer := func(name string) float64 { return wr.PerLayer[name].Value }
			for _, name := range []string{"storage.appends_per_op", "storage.syncs_per_op", "storage.sync_us_per_op", "storage.wal_bytes_per_op"} {
				if got := layer(name); wl.Durable != (got > 0) {
					t.Errorf("%s = %g with durable=%v: storage must be used exactly when attached", name, got, wl.Durable)
				}
			}
			if got := layer("transport.dropped_share"); (wl.Kill >= 0) != (got > 0) {
				t.Errorf("transport.dropped_share = %g with kill=%d: frames drop only toward a dead peer", got, wl.Kill)
			}
			for _, name := range []string{"cluster.events_per_op", "regmap.steps_per_op", "transport.frames_per_op", "shard.handler_us"} {
				if layer(name) <= 0 {
					t.Errorf("%s = %g, want > 0", name, layer(name))
				}
			}
			for _, r := range wr.Repetitions {
				if r.LinearizableKeys == 0 || r.AckedWritesMissing != 0 {
					t.Errorf("verdicts: %d keys linearizable, %d acked writes missing", r.LinearizableKeys, r.AckedWritesMissing)
				}
			}

			var tf traceFile
			raw, err := os.ReadFile(filepath.Join(p.outDir, "trace-"+wl.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(raw, &tf); err != nil {
				t.Fatal(err)
			}
			names := make(map[string]int)
			children := 0
			for _, s := range tf.Spans {
				names[s.Name]++
				if s.Parent != 0 {
					children++
				}
				if s.End < s.Start || s.Start < tf.SliceFrom || s.Start >= tf.SliceTo {
					t.Fatalf("span %+v outside the slice [%d, %d)", s, tf.SliceFrom, tf.SliceTo)
				}
			}
			for _, name := range []string{"regclient.op", "shard.handler", "regmap.start", "regmap.deliver", "transport.send"} {
				if names[name] == 0 {
					t.Errorf("trace has no %s span (got %v)", name, names)
				}
			}
			if children == 0 {
				t.Error("trace has no span with a parent")
			}

			// The driver's result line carries exactly the contracted names.
			rep := &report{Workloads: []*workloadReport{wr}}
			line := resultLine(rep, false)
			if len(line.Metrics) != len(endToEnd) || !line.Correct || line.Attempted != wr.Attempted {
				t.Errorf("result line %+v does not carry the %d end-to-end metrics", line, len(endToEnd))
			}
		})
	}
}

func TestProbesEmitEveryMetric(t *testing.T) {
	t.Parallel()
	values, err := runProbes(t.TempDir(), 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range probeMetrics {
		if v, ok := values[def.Name]; !ok || v <= 0 {
			t.Errorf("probe %s = %g (present %v), want > 0", def.Name, v, ok)
		}
	}
	if len(values) != len(probeMetrics) {
		t.Errorf("probes emitted %d metrics, the table lists %d", len(values), len(probeMetrics))
	}
}

// TestSyncProbeExactCounts: the synchronous probe's counts are the only
// numbers a later change may cite as counts, so they must repeat exactly.
func TestSyncProbeExactCounts(t *testing.T) {
	t.Parallel()
	for _, n := range []int{3, 7} {
		a, err := syncProbe(n, 128, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := syncProbe(n, 128, nil)
		if err != nil {
			t.Fatal(err)
		}
		exact := func(sc syncCounts) [6]float64 {
			return [6]float64{sc.MsgsPerWrite, sc.MsgsPerRead, sc.CtrlBitsPerMsg, sc.AddrBitsPerFrame, sc.RoundsPerWrite, sc.RoundsPerRead}
		}
		if exact(a) != exact(b) {
			t.Errorf("n=%d: counts differ between two invocations: %v vs %v", n, exact(a), exact(b))
		}
		if a.CtrlBitsPerMsg != 2 {
			t.Errorf("n=%d: %g control bits per message, the paper's claim is 2", n, a.CtrlBitsPerMsg)
		}
	}
}

func TestGeneratorIsSeeded(t *testing.T) {
	t.Parallel()
	stream := func(seed int64, rep, worker int) []byte {
		var b bytes.Buffer
		s := newOpStream(seed, rep, worker, 0.5)
		for i := 0; i < 2000; i++ {
			op := s.next()
			b.WriteString(keyNames[op.Key])
			if op.Read {
				b.WriteByte('r')
			}
			b.Write(op.Val)
		}
		return b.Bytes()
	}
	base := stream(42, 1, 3)
	if !bytes.Equal(base, stream(42, 1, 3)) {
		t.Error("equal seeds gave different operation streams")
	}
	for _, other := range [][]byte{stream(43, 1, 3), stream(42, 2, 3), stream(42, 1, 4)} {
		if bytes.Equal(base, other) {
			t.Error("a different seed, repetition or worker gave the same operation stream")
		}
	}
	seen := make(map[string]bool)
	for w := 0; w < 16; w++ {
		s := newOpStream(1, 0, w, 0)
		for i := 0; i < 100; i++ {
			v := string(s.next().Val)
			if len(v) != valueSize || seen[v] {
				t.Fatalf("value %q: want %d bytes, never repeated", v, valueSize)
			}
			seen[v] = true
		}
	}
}

// TestTracedProcessKeepsNodeContracts drives a KeyedNode around the traced
// process wrapper: KeyedNode must still find the coalescer's flush tick (a
// burst leaves as one multi-frame) and the writer-set boundary (a foreign
// write is rejected before it reaches the protocol).
func TestTracedProcessKeepsNodeContracts(t *testing.T) {
	t.Parallel()
	store, err := regmap.NewNode(0, regmap.Config{
		N: 3, DefaultWriters: []int{0, 1, 2}, Writers: map[string][]int{"theirs": {1}}, Coalesce: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(time.Now(), 3)
	entered, gate := make(chan struct{}), make(chan struct{})
	sent := make(chan proto.Message, 64) // far above the handful of frames the test causes
	first := true                        // touched by the event loop only
	nd := cluster.NewKeyedNode(0, tr.wrapProcess(0, store), tr.wrapSend(0, func(_ int, msg proto.Message) {
		if first {
			first = false
			close(entered)
			<-gate
		}
		sent <- msg
	}))

	if err := nd.Put("theirs", []byte("x")); !errors.Is(err, cluster.ErrNotWriter) {
		t.Errorf("foreign write returned %v, want ErrNotWriter", err)
	}

	// Park the event loop inside its first send, queue three freshness
	// requests from peer 1 behind it, and let go: the three answers are one
	// mailbox burst toward one peer.
	putDone := make(chan error, 1)
	go func() { putDone <- nd.Put("mine", []byte("v")) }()
	<-entered
	for _, key := range []string{"a", "b", "c"} {
		nd.Deliver(1, regmap.KeyedMsg{Key: key, Inner: core.ReadMsg{}})
	}
	close(gate)
	deadline := time.After(10 * time.Second)
	for multi := false; !multi; {
		select {
		case msg := <-sent:
			if m, ok := msg.(regmap.MultiMsg); ok {
				if len(m.Frames) != 3 {
					t.Errorf("burst left as a %d-frame multi-frame, want 3", len(m.Frames))
				}
				multi = true
			}
		case <-deadline:
			t.Fatal("no multi-frame left the node")
		}
	}
	nd.Stop()
	if err := <-putDone; !errors.Is(err, cluster.ErrStopped) {
		t.Errorf("pending write ended with %v, want ErrStopped", err)
	}
	c := tr.snapshot()
	if c[cEvents] != 4 || c[cFlushes] < 2 || c[cSteps] != c[cEvents]+c[cFlushes] || c[cSends] < 3 {
		t.Errorf("counters %v: want 4 events (one write, three messages), their flushes and sends", c)
	}
}

func TestVerifiersCatchViolations(t *testing.T) {
	t.Parallel()
	v1 := writeValue(0, 1)
	clean := [][]opRecord{{
		{key: 5, val: v1, inv: 10, res: 20, ok: true},
		{key: 5, read: true, val: v1, inv: 30, res: 40, ok: true},
	}}
	if keys, err := checkLinearizable(clean); err != nil || keys != 1 {
		t.Errorf("clean history: %d keys, %v", keys, err)
	}
	stale := [][]opRecord{{
		{key: 5, val: v1, inv: 10, res: 20, ok: true},
		{key: 5, read: true, val: nil, inv: 30, res: 40, ok: true}, // the initial value, after the write returned
	}}
	if _, err := checkLinearizable(stale); err == nil || !strings.Contains(err.Error(), keyNames[5]) {
		t.Errorf("stale read went unnoticed: %v", err)
	}

	// An acknowledged write held by one log of three is below the quorum.
	dir := t.TempDir()
	var paths []string
	for i, vals := range [][][]byte{{v1}, {}, {}} {
		path := filepath.Join(dir, string(rune('a'+i)))
		wal, err := storage.OpenFileWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		wal.Append(storage.Record{Key: keyNames[5], Lane: 0, Index: 0, Val: []byte("other")})
		for _, v := range vals {
			wal.Append(storage.Record{Key: keyNames[5], Lane: 0, Index: 1, Val: v})
		}
		if err := wal.Sync(); err != nil {
			t.Fatal(err)
		}
		wal.Close()
		paths = append(paths, path)
	}
	if missing, err := ackedWritesMissing(paths, clean, 2); err != nil || missing != 1 {
		t.Errorf("write in 1 of 3 logs: missing = %d, %v; want 1", missing, err)
	}
	if missing, err := ackedWritesMissing(paths, clean, 1); err != nil || missing != 0 {
		t.Errorf("quorum 1: missing = %d, %v; want 0", missing, err)
	}
}

// TestBenchmarkJSONMatchesTables holds the contract file at the repository
// root to the program's own tables, so neither can drift alone.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	t.Parallel()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"bench"}) || !reflect.DeepEqual(spec.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("command %v, paths %v", spec.Command, spec.Paths)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if spec.Workloads[i].Name != wl.Name || spec.Workloads[i].Why != wl.Why {
			t.Errorf("workload %d: %+v, the program has %q: %q", i, spec.Workloads[i], wl.Name, wl.Why)
		}
		if len(wl.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the contract allows 200", wl.Name, len(wl.Why))
		}
	}
	compare := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, the program has %d", kind, len(got), len(want))
		}
		for i, def := range want {
			g := got[i]
			if g.Name != def.Name || g.Unit != def.Unit || g.Better != def.Better {
				t.Errorf("%s %d: %+v, the program has %+v", kind, i, g, def)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != def.Bound || def.Bound <= 0 || def.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v, the program has %g", kind, g.Name, g.Bound, def.Bound)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd, true)
	compare("per_layer", spec.PerLayer, append(append([]metricDef(nil), tracedMetrics...), probeMetrics...), false)
}
