package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"twobitreg/internal/proto"
)

// params are the settings of one run that do not depend on the workload.
type params struct {
	seed   int64
	warmup time.Duration // per repetition, before the measured window
	window time.Duration // the measured window of one repetition
	outDir string        // WAL temp dirs and trace files go here
}

// opRecord is one operation as its caller saw it. Times are nanoseconds
// since the stack's base instant; res is when the call returned, failed or
// not. val is the value written, or the value a read returned.
type opRecord struct {
	inv, res int64
	key      int
	read, ok bool
	val      []byte
}

// latency summarises one kind of operation over a measured window. Every
// window has over a thousand samples of each kind, so more than ten lie
// beyond the 99th percentile; the 99.9th is printed for the record.
type latency struct {
	Count  int     `json:"count"`
	P50Us  float64 `json:"p50_us"`
	P95Us  float64 `json:"p95_us"`
	P99Us  float64 `json:"p99_us"`
	P999Us float64 `json:"p99.9_us"`
}

// repResult is one repetition: a fresh cluster, a warm-up, one measured
// window, the verdicts.
type repResult struct {
	Traced    bool    `json:"traced"`
	WindowS   float64 `json:"window_s"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Write     latency `json:"write"`
	Read      latency `json:"read"`
	// E2E holds the end-to-end metrics by name; Layer, on a traced
	// repetition, the per-layer ones.
	E2E   map[string]float64 `json:"end_to_end"`
	Layer map[string]float64 `json:"per_layer,omitempty"`
	// The verdicts: keys whose full history passed the atomicity check
	// (any violation aborts the run instead), and acknowledged writes
	// missing from a quorum of the WAL files (durable workloads).
	LinearizableKeys   int `json:"linearizable_keys"`
	AckedWritesMissing int `json:"acked_writes_missing"`
}

// runRepetition assembles a fresh cluster for wl, warms it up, measures
// one window, tears it down and judges the recorded history. Everything
// but the window itself happens outside the timed region.
func runRepetition(wl workload, p params, rep int, traced bool) (*repResult, error) {
	dir, err := os.MkdirTemp(p.outDir, "rep-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	st, setupRecs, setup, err := assemble(wl, dir, traced)
	if err != nil {
		return nil, err
	}
	defer st.close()
	tr := st.tr

	// The closed loop: sessions x InFlight callers, each issuing its next
	// operation when the previous one returns, from before the warm-up
	// until after the window closes. Windows are cut from the records.
	workers := sessions * wl.InFlight
	recs := make([][]opRecord, workers, workers+sessions)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := st.clients[w%sessions]
			gen := newOpStream(p.seed, rep, w, wl.ReadFrac)
			log := make([]opRecord, 0, 1<<16)
			for !stop.Load() {
				op := gen.next()
				r := opRecord{key: op.Key, read: op.Read, val: op.Val, inv: st.now()}
				var err error
				if op.Read {
					r.val, err = cl.Get(keyNames[op.Key])
				} else {
					err = cl.Put(keyNames[op.Key], op.Val)
				}
				r.res, r.ok = st.now(), err == nil
				log = append(log, r)
			}
			recs[w] = log
		}()
	}
	stopWorkers := func() { stop.Store(true); wg.Wait() }

	time.Sleep(p.warmup)
	begin, err := st.observe()
	if err != nil {
		stopWorkers()
		return nil, err
	}
	if tr != nil {
		tr.openSlice(begin.at)
	}
	if wl.Kill >= 0 {
		st.kill(wl.Kill)
	}
	time.Sleep(p.window)
	end, err := st.observe()
	stopWorkers()
	if err != nil {
		return nil, err
	}
	recs = append(recs, setupRecs...) // the set-up writes are part of the history
	walPaths := make([]string, 0, wl.N)
	for _, m := range st.members {
		if m.walPath != "" {
			walPaths = append(walPaths, m.walPath)
		}
	}
	st.close()
	if n := st.sendErrs.Load(); n > 0 {
		return nil, fmt.Errorf("%s: %d frames refused by the transport", wl.Name, n)
	}

	res := &repResult{Traced: traced, WindowS: float64(end.at-begin.at) / 1e9}
	if res.LinearizableKeys, err = checkLinearizable(recs); err != nil {
		return nil, fmt.Errorf("%s: %w", wl.Name, err)
	}
	if wl.Durable {
		res.AckedWritesMissing, err = ackedWritesMissing(walPaths, recs, proto.QuorumSize(wl.N))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wl.Name, err)
		}
		if res.AckedWritesMissing > 0 {
			return nil, fmt.Errorf("%s: %d acknowledged writes are not in a quorum of the WAL files", wl.Name, res.AckedWritesMissing)
		}
	}

	// Cut the window from the records by completion time.
	var writeUs, readUs []float64
	var latSumNs int64
	for _, log := range recs {
		for _, r := range log {
			if r.res < begin.at || r.res >= end.at {
				continue
			}
			res.Attempted++
			if !r.ok {
				res.Failed++
				continue
			}
			latSumNs += r.res - r.inv
			if r.read {
				readUs = append(readUs, float64(r.res-r.inv)/1e3)
			} else {
				writeUs = append(writeUs, float64(r.res-r.inv)/1e3)
			}
		}
	}
	done := float64(len(writeUs) + len(readUs))
	if done == 0 {
		return nil, fmt.Errorf("%s: no operation completed in the measured window", wl.Name)
	}
	res.Write, res.Read = summarize(writeUs), summarize(readUs)
	res.E2E = map[string]float64{
		"ops_per_sec":   done / res.WindowS,
		"write_p50_us":  res.Write.P50Us,
		"write_p95_us":  res.Write.P95Us,
		"read_p50_us":   res.Read.P50Us,
		"read_p95_us":   res.Read.P95Us,
		"cpu_us_per_op": float64(end.cpu-begin.cpu) / 1e3 / done,
		failedShare:     float64(res.Failed) / float64(res.Attempted),
		"setup_s":       setup.Seconds(),
	}
	if tr != nil {
		res.Layer = layerMetrics(tr, begin, end, done, float64(latSumNs))
		res.Layer["transport.kill_stall_ms"] = maxCompletionGapMs(recs, begin.at, begin.at+int64(time.Second))
		path := filepath.Join(p.outDir, "trace-"+wl.Name+".json")
		if err := tr.writeSpans(path, wl.Name, p.seed, clientSpans(tr, recs)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// setupCaller is the first caller id of the set-up writes, clear of the
// load's callers (at most sessions x InFlight = 16).
const setupCaller = 90

// assemble builds and starts wl's cluster and writes every key once
// through each session, so that every member holds every key's register
// and every connection is up before the load starts. The returned duration,
// start of assembly to the last of those replies, is the set-up time; the
// writes are returned because they belong to the history.
func assemble(wl workload, dir string, traced bool) (*stack, [][]opRecord, time.Duration, error) {
	base := time.Now()
	var tr *tracer
	if traced {
		tr = newTracer(base, wl.N)
	}
	st, err := newStack(wl, dir, base, tr)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("assemble %s: %w", wl.Name, err)
	}
	recs := make([][]opRecord, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for s, cl := range st.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < numKeys && errs[s] == nil; k++ {
				r := opRecord{key: k, val: writeValue(setupCaller+s, uint64(k+1)), inv: st.now()}
				errs[s] = cl.Put(keyNames[k], r.val)
				r.res, r.ok = st.now(), errs[s] == nil
				recs[s] = append(recs[s], r)
			}
		}()
	}
	wg.Wait()
	setup := time.Since(base)
	for s, err := range errs {
		if err != nil {
			st.close()
			return nil, nil, 0, fmt.Errorf("%s: set-up write on session %d: %w", wl.Name, s, err)
		}
	}
	return st, recs, setup, nil
}

// setupOnly assembles wl's cluster, times its set-up and tears it down.
func setupOnly(wl workload, p params) (time.Duration, error) {
	dir, err := os.MkdirTemp(p.outDir, "setup-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	st, _, setup, err := assemble(wl, dir, false)
	if err != nil {
		return 0, err
	}
	st.close()
	return setup, nil
}

// summarize sorts us in place and takes nearest-rank percentiles.
func summarize(us []float64) latency {
	if len(us) == 0 {
		return latency{}
	}
	sort.Float64s(us)
	return latency{Count: len(us), P50Us: quantile(us, 0.50), P95Us: quantile(us, 0.95), P99Us: quantile(us, 0.99), P999Us: quantile(us, 0.999)}
}

// quantile is the nearest-rank q-quantile of sorted.
func quantile(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// layerMetrics turns the difference of two observations into the traced
// pass's per-layer metrics, per completed operation unless the name says
// otherwise. latSumNs is the summed client-side latency of those
// operations.
func layerMetrics(tr *tracer, begin, end observation, done, latSumNs float64) map[string]float64 {
	c := end.layer.sub(begin.layer)
	per := func(i int) float64 { return float64(c[i]) / done }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var syncUs []float64
	for _, nt := range tr.nodes {
		for _, s := range nt.syncs {
			if s.at >= begin.at && s.at < end.at {
				syncUs = append(syncUs, float64(s.dur)/1e3)
			}
		}
	}
	frames := float64(end.mesh.FramesSent - begin.mesh.FramesSent)
	dropped := float64(end.mesh.FramesDropped - begin.mesh.FramesDropped)
	return map[string]float64{
		"regclient.outside_handler_us": (latSumNs - float64(c[cHandlerNs])) / done / 1e3,
		"shard.handler_us":             per(cHandlerNs) / 1e3,
		"cluster.events_per_op":        per(cEvents),
		"cluster.mailbox_wait_us":      ratio(float64(c[cMailboxNs]), float64(c[cMsgs])) / 1e3,
		"regmap.steps_per_op":          per(cSteps),
		"regmap.step_us":               float64(c[cStepNs]-c[cSyncNs]) / done / 1e3,
		"regmap.flushes_per_op":        per(cFlushes),
		"storage.appends_per_op":       per(cAppends),
		"storage.syncs_per_op":         per(cSyncs),
		"storage.sync_us":              ratio(float64(c[cSyncNs]), float64(c[cSyncs])) / 1e3,
		"storage.sync_p99_us":          summarize(syncUs).P99Us,
		"storage.sync_us_per_op":       per(cSyncNs) / 1e3,
		"storage.wal_bytes_per_op":     float64(end.walBytes-begin.walBytes) / done,
		"transport.sends_per_op":       per(cSends),
		"transport.send_call_us":       per(cSendNs) / 1e3,
		"transport.frames_per_op":      frames / done,
		"transport.frames_per_write":   ratio(frames, float64(end.mesh.ConnWrites-begin.mesh.ConnWrites)),
		"transport.bytes_per_op":       float64(end.mesh.BytesSent-begin.mesh.BytesSent) / done,
		"transport.dropped_share":      ratio(dropped, frames+dropped),
		"transport.redials":            float64(end.mesh.Redials - begin.mesh.Redials),
	}
}

// maxCompletionGapMs is the longest interval in [from, to) during which no
// operation completed — after a kill, how long the service stalled.
func maxCompletionGapMs(recs [][]opRecord, from, to int64) float64 {
	var at []int64
	for _, log := range recs {
		for _, r := range log {
			if r.ok && r.res >= from && r.res < to {
				at = append(at, r.res)
			}
		}
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	prev, gap := from, int64(0)
	for _, t := range append(at, to) {
		if t-prev > gap {
			gap = t - prev
		}
		prev = t
	}
	return float64(gap) / 1e6
}

// clientSpans renders the operations invoked inside the tracer's span
// slice as root spans. A write is identified by its value; a read gets a
// client-side label, since nothing identifies it beyond the socket.
func clientSpans(tr *tracer, recs [][]opRecord) []span {
	var out []span
	for w, log := range recs {
		for i, r := range log {
			id := tr.begin(r.inv)
			if id == 0 {
				continue
			}
			op := string(r.val)
			if r.read {
				op = fmt.Sprintf("r%02d-%d", w, i)
			}
			out = append(out, span{ID: id, Name: "regclient.op", Node: -1, Start: r.inv, End: r.res, Op: op})
		}
	}
	return out
}
