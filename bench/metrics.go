package main

// metricDef names one metric the benchmark emits. The tables below are the
// single list of names and units: the program prints from them, and a test
// holds BENCHMARK.json to them.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression. One
	// bound serves all four workloads, so the noisiest sets it: that is
	// durable-pipelined, whose fsync price drifts about 10% between runs
	// on a shared disk (bench/README.md, "Noise floor"). 0.25 is the most
	// the contract allows.
	Bound float64
}

// endToEnd are the metrics a user of the served register sees; the same
// names on every workload. Two more end-to-end figures are printed beside
// them, ungated. failed_share (failed / attempted, expected exactly 0)
// travels in the result line's `attempted` and `failed` fields: a metric
// whose healthy value is 0 cannot carry a relative bound. The p99s give way
// to the p95s as the gated tail: on this machine about 1% of operations
// meet a stall of some 4 ms, so a p99 sits on the knee of its distribution
// and swings over 20% between runs of the same code, which no bound the
// contract allows can hold. p99 and p99.9 are printed with every
// repetition's sample count.
var endToEnd = []metricDef{
	{Name: "ops_per_sec", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "write_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "write_p95_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "read_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "read_p95_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

const failedShare = "failed_share"

// tracedMetrics are the per-layer metrics of the traced repetition, per
// completed operation unless the name says otherwise. Better is the
// direction an optimisation of that layer would move it; no per-layer
// metric is gated.
var tracedMetrics = []metricDef{
	{Name: "regclient.outside_handler_us", Unit: "us", Better: "lower"},
	{Name: "shard.handler_us", Unit: "us", Better: "lower"},
	{Name: "cluster.events_per_op", Unit: "count", Better: "lower"},
	{Name: "cluster.mailbox_wait_us", Unit: "us", Better: "lower"},
	{Name: "regmap.steps_per_op", Unit: "count", Better: "lower"},
	{Name: "regmap.step_us", Unit: "us", Better: "lower"},
	{Name: "regmap.flushes_per_op", Unit: "count", Better: "lower"},
	{Name: "storage.appends_per_op", Unit: "count", Better: "lower"},
	{Name: "storage.syncs_per_op", Unit: "count", Better: "lower"},
	{Name: "storage.sync_us", Unit: "us", Better: "lower"},
	{Name: "storage.sync_p99_us", Unit: "us", Better: "lower"},
	{Name: "storage.sync_us_per_op", Unit: "us", Better: "lower"},
	{Name: "storage.wal_bytes_per_op", Unit: "bytes", Better: "lower"},
	{Name: "transport.sends_per_op", Unit: "count", Better: "lower"},
	{Name: "transport.send_call_us", Unit: "us", Better: "lower"},
	{Name: "transport.frames_per_op", Unit: "count", Better: "lower"},
	{Name: "transport.frames_per_write", Unit: "count", Better: "higher"},
	{Name: "transport.bytes_per_op", Unit: "bytes", Better: "lower"},
	{Name: "transport.dropped_share", Unit: "share", Better: "lower"},
	{Name: "transport.redials", Unit: "count", Better: "lower"},
	{Name: "transport.kill_stall_ms", Unit: "ms", Better: "lower"},
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
}

// probeMetrics are the isolated probes' metrics: one layer's public
// functions timed alone, and the exact counts of the synchronous probe.
var probeMetrics = []metricDef{
	{Name: "wire.frame_codec_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.client_codec_ns", Unit: "ns", Better: "lower"},
	{Name: "storage.append_sync_us", Unit: "us", Better: "lower"},
	{Name: "storage.memlog_append_sync_ns", Unit: "ns", Better: "lower"},
	{Name: "storage.replay_us_per_record", Unit: "us", Better: "lower"},
	{Name: "regmap.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "regmap.write_cpu_us", Unit: "us", Better: "lower"},
	{Name: "regmap.write_cpu_us_n7", Unit: "us", Better: "lower"},
	{Name: "regmap.read_cpu_us", Unit: "us", Better: "lower"},
	{Name: "regmap.read_cpu_us_n7", Unit: "us", Better: "lower"},
	{Name: "regmap.msgs_per_write", Unit: "count", Better: "lower"},
	{Name: "regmap.msgs_per_write_n7", Unit: "count", Better: "lower"},
	{Name: "regmap.msgs_per_read", Unit: "count", Better: "lower"},
	{Name: "regmap.msgs_per_read_n7", Unit: "count", Better: "lower"},
	{Name: "regmap.heap_bytes_per_op", Unit: "bytes", Better: "lower"},
	{Name: "regmap.heap_bytes_per_op_n7", Unit: "bytes", Better: "lower"},
	{Name: "regmap.addr_bits_per_frame", Unit: "bits", Better: "lower"},
	{Name: "core.ctrl_bits_per_msg", Unit: "bits", Better: "lower"},
	{Name: "core.rounds_per_write", Unit: "count", Better: "lower"},
	{Name: "core.rounds_per_read", Unit: "count", Better: "lower"},
	{Name: "cluster.inproc_put_us", Unit: "us", Better: "lower"},
	{Name: "transport.pingpong_rtt_us", Unit: "us", Better: "lower"},
	{Name: "shard.null_rtt_us", Unit: "us", Better: "lower"},
}
