package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// plan says what one invocation runs per workload. The driver's two modes
// and the full run are three plans over the same code.
type plan struct {
	untraced int  // repetitions with the stack untouched: the end-to-end metrics
	traced   bool // one more repetition with every seam decorated: the per-layer metrics
}

// extraSetups is how many set-up-only cycles a workload adds to its
// repetitions' own, so setup_s is the median of about a dozen samples.
const extraSetups = 8

// metricValue is one reported metric. For an end-to-end metric Value is
// the median of the untraced repetitions, with their range and values.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Min     float64   `json:"min,omitempty"`
	Max     float64   `json:"max,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

type workloadReport struct {
	Name        string                 `json:"name"`
	Why         string                 `json:"why"`
	Attempted   int64                  `json:"attempted"`
	Failed      int64                  `json:"failed"`
	EndToEnd    map[string]metricValue `json:"end_to_end"`
	PerLayer    map[string]metricValue `json:"per_layer,omitempty"`
	Repetitions []*repResult           `json:"repetitions"`
}

// environment is the stamp every result file carries: numbers from
// different machines are not comparable.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	TempFS     string `json:"temp_dir_filesystem"`
}

type budgetRow struct {
	Workload       string  `json:"workload"`
	WriteP50Us     float64 `json:"write_p50_us"`
	NullRTTUs      float64 `json:"shard.null_rtt_us"`
	Rounds         float64 `json:"core.rounds_per_write"`
	PingPongRTTUs  float64 `json:"transport.pingpong_rtt_us"`
	SyncUs         float64 `json:"storage.sync_us"`
	ExplainedUs    float64 `json:"explained_us"`
	UnexplainedUs  float64 `json:"unexplained_us"`
	UnexplainedPct float64 `json:"unexplained_pct"`
}

// report is the machine-readable result of one invocation (-out).
type report struct {
	Env       environment            `json:"environment"`
	Seed      int64                  `json:"seed"`
	Seconds   int                    `json:"seconds"`
	Workloads []*workloadReport      `json:"workloads"`
	Probes    map[string]metricValue `json:"probes,omitempty"`
	Budget    []budgetRow            `json:"budget,omitempty"`
}

// median of sorted, the mean of the middle two for an even count.
func median(sorted []float64) float64 {
	n := len(sorted)
	return (sorted[(n-1)/2] + sorted[n/2]) / 2
}

// runWorkload runs wl's repetitions under pl and folds them into a report.
func runWorkload(wl workload, p params, pl plan) (*workloadReport, error) {
	wr := &workloadReport{Name: wl.Name, Why: wl.Why, EndToEnd: make(map[string]metricValue)}
	samples := make(map[string][]float64)
	for rep := 0; rep < pl.untraced; rep++ {
		r, err := runRepetition(wl, p, rep, false)
		if err != nil {
			return nil, err
		}
		wr.Repetitions = append(wr.Repetitions, r)
		for name, v := range r.E2E {
			samples[name] = append(samples[name], v)
		}
	}
	for i := 0; i < extraSetups; i++ {
		setup, err := setupOnly(wl, p)
		if err != nil {
			return nil, err
		}
		samples["setup_s"] = append(samples["setup_s"], setup.Seconds())
	}
	// The median of three shrugs off one repetition that met a disturbance,
	// which pooling their samples would not.
	for _, def := range append([]metricDef{{Name: failedShare, Unit: "share"}}, endToEnd...) {
		s := samples[def.Name]
		sorted := append([]float64(nil), s...)
		sort.Float64s(sorted)
		wr.EndToEnd[def.Name] = metricValue{
			Value: median(sorted), Unit: def.Unit, Min: sorted[0], Max: sorted[len(sorted)-1], Samples: s,
		}
	}
	if pl.traced {
		r, err := runRepetition(wl, p, pl.untraced, true)
		if err != nil {
			return nil, err
		}
		wr.Repetitions = append(wr.Repetitions, r)
		untraced := wr.EndToEnd["ops_per_sec"].Value
		r.Layer["trace_overhead_pct"] = 100 * (untraced - r.E2E["ops_per_sec"]) / untraced
		wr.PerLayer = make(map[string]metricValue)
		for _, def := range tracedMetrics {
			wr.PerLayer[def.Name] = metricValue{Value: r.Layer[def.Name], Unit: def.Unit}
		}
	}
	for _, r := range wr.Repetitions {
		wr.Attempted += r.Attempted
		wr.Failed += r.Failed
	}
	return wr, nil
}

// budget sets a workload's median write latency against the price of its
// parts measured alone: one client round trip, the write's quorum rounds
// at one mesh round trip each, and one sync where storage is attached.
// What the parts do not explain is stated, not hidden.
func budget(wr *workloadReport, probes map[string]metricValue) budgetRow {
	b := budgetRow{
		Workload:      wr.Name,
		WriteP50Us:    wr.EndToEnd["write_p50_us"].Value,
		NullRTTUs:     probes["shard.null_rtt_us"].Value,
		Rounds:        probes["core.rounds_per_write"].Value,
		PingPongRTTUs: probes["transport.pingpong_rtt_us"].Value,
		SyncUs:        wr.PerLayer["storage.sync_us"].Value,
	}
	b.ExplainedUs = b.NullRTTUs + b.Rounds*b.PingPongRTTUs + b.SyncUs
	b.UnexplainedUs = b.WriteP50Us - b.ExplainedUs
	b.UnexplainedPct = 100 * b.UnexplainedUs / b.WriteP50Us
	return b
}

func stampEnvironment(tempDir string) environment {
	env := environment{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Kernel: "unknown", TempFS: "unknown",
	}
	var uts syscall.Utsname
	if syscall.Uname(&uts) == nil {
		var b []byte
		for _, c := range uts.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		env.Kernel = string(b)
	}
	var fs syscall.Statfs_t
	if syscall.Statfs(tempDir, &fs) == nil {
		names := map[int64]string{
			0xEF53: "ext2/3/4", 0x01021994: "tmpfs", 0x794C7630: "overlayfs",
			0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x2FC12FC1: "zfs",
		}
		if name, ok := names[int64(fs.Type)]; ok {
			env.TempFS = name
		} else {
			env.TempFS = fmt.Sprintf("magic 0x%X", fs.Type)
		}
	}
	return env
}

// printHuman renders the report as the tables a person reads.
func printHuman(w io.Writer, rep *report, window time.Duration) {
	e := rep.Env
	fmt.Fprintf(w, "claims benchmark: seed %d, %d s measured per workload run (%s windows, closed loop, %d sessions, %d keys, %d-byte values)\n",
		rep.Seed, rep.Seconds, window, sessions, numKeys, valueSize)
	fmt.Fprintf(w, "environment: nproc %d, GOMAXPROCS %d, %s, kernel %s, temp dir on %s\n",
		e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.Kernel, e.TempFS)
	for _, wr := range rep.Workloads {
		wl, _ := workloadByName(wr.Name)
		store := "no storage"
		if wl.Durable {
			store = "FileWAL with fsync"
		}
		fmt.Fprintf(w, "\n== %s: n=%d, %s, %.0f%% reads, %d in flight per session", wr.Name, wl.N, store, 100*wl.ReadFrac, wl.InFlight)
		if wl.Kill >= 0 {
			fmt.Fprintf(w, ", member %d killed as the window opens", wl.Kill)
		}
		fmt.Fprintln(w)
		var untraced []*repResult
		for _, r := range wr.Repetitions {
			if !r.Traced {
				untraced = append(untraced, r)
			}
		}
		fmt.Fprintf(w, "  end-to-end, median of %d untraced repetitions [min .. max]\n", len(untraced))
		for _, def := range endToEnd {
			v := wr.EndToEnd[def.Name]
			fmt.Fprintf(w, "    %-30s %14.6g %-5s [%.6g .. %.6g]  may worsen %.0f%%\n", def.Name, v.Value, v.Unit, v.Min, v.Max, 100*def.Bound)
		}
		fmt.Fprintf(w, "    %-30s %14.6g %-5s (%d failed of %d attempted)  any rise fails\n",
			failedShare, wr.EndToEnd[failedShare].Value, "share", wr.Failed, wr.Attempted)
		for i, r := range untraced {
			fmt.Fprintf(w, "    repetition %d: %d writes (p99 %.0f us, p99.9 %.0f us), %d reads (p99 %.0f us, p99.9 %.0f us), %d keys linearizable, acked_writes_missing %d\n",
				i, r.Write.Count, r.Write.P99Us, r.Write.P999Us, r.Read.Count, r.Read.P99Us, r.Read.P999Us, r.LinearizableKeys, r.AckedWritesMissing)
		}
		if wr.PerLayer != nil {
			fmt.Fprintln(w, "  per layer, one traced repetition, per completed operation")
			for _, def := range tracedMetrics {
				fmt.Fprintf(w, "    %-30s %14.6g %s\n", def.Name, wr.PerLayer[def.Name].Value, def.Unit)
			}
		}
	}
	if rep.Probes != nil {
		fmt.Fprintln(w, "\n== isolated probes: one layer's public functions alone")
		for _, def := range probeMetrics {
			fmt.Fprintf(w, "    %-30s %14.6g %s\n", def.Name, rep.Probes[def.Name].Value, def.Unit)
		}
	}
	if len(rep.Budget) > 0 {
		fmt.Fprintln(w, "\n== budget: write_p50_us against shard.null_rtt_us + core.rounds_per_write x transport.pingpong_rtt_us + storage.sync_us")
		for _, b := range rep.Budget {
			fmt.Fprintf(w, "    %-18s %9.1f us = %.1f + %.0f x %.1f + %.1f = %.1f explained, %.1f us (%.0f%%) unexplained\n",
				b.Workload, b.WriteP50Us, b.NullRTTUs, b.Rounds, b.PingPongRTTUs, b.SyncUs, b.ExplainedUs, b.UnexplainedUs, b.UnexplainedPct)
		}
	}
}
