package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"twobitreg/internal/cluster"
	"twobitreg/internal/core"
	"twobitreg/internal/metrics"
	"twobitreg/internal/proto"
	"twobitreg/internal/regclient"
	"twobitreg/internal/regmap"
	"twobitreg/internal/shard"
	"twobitreg/internal/storage"
	"twobitreg/internal/transport"
	"twobitreg/internal/wire"
)

// The isolated probes time one layer's public functions alone, so the
// budget table can set the served path's latency against the price of its
// parts on this machine. They do not depend on the workload or the seed.

// probeFrame is the frame every wire and transport probe ships: one keyed
// lane WRITE carrying a 16-byte value, the commonest frame of a write.
var probeFrame = regmap.KeyedMsg{
	Key:   keyNames[1],
	Inner: core.LaneMsg{Writer: 1, M: core.WriteMsg{Bit: 1, Val: writeValue(0, 1)}},
}

// meanNs runs fn back to back for about dur and returns the mean
// nanoseconds per call.
func meanNs(dur time.Duration, fn func()) float64 {
	const chunk = 256
	start := time.Now()
	n := 0
	for time.Since(start) < dur {
		for i := 0; i < chunk; i++ {
			fn()
		}
		n += chunk
	}
	return float64(time.Since(start)) / float64(n)
}

// typicalNs times each call of fn for about dur and returns the mean of
// the samples between the quartiles: as robust against a stall as the
// median, without the median's clock-tick granularity.
func typicalNs(dur time.Duration, fn func() error) (float64, error) {
	var samples []float64
	start := time.Now()
	for time.Since(start) < dur || len(samples) < 4 {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		samples = append(samples, float64(time.Since(t0)))
	}
	sort.Float64s(samples)
	mid := samples[len(samples)/4 : len(samples)-len(samples)/4]
	sum := 0.0
	for _, v := range mid {
		sum += v
	}
	return sum / float64(len(mid)), nil
}

// runProbes runs every probe, each for about dur, and returns the metrics
// by name. dir holds the probes' WAL files.
func runProbes(dir string, dur time.Duration) (map[string]float64, error) {
	out := make(map[string]float64)
	probeWire(out, dur)
	for _, probe := range []func(map[string]float64, string, time.Duration) error{
		probeStorage, probeRecovery, probeInProc, probePingPong, probeNullRTT,
	} {
		if err := probe(out, dir, dur); err != nil {
			return nil, err
		}
	}
	for _, g := range []struct {
		n, ops int
		suffix string
	}{{3, 2048, ""}, {7, 512, "_n7"}} {
		sc, err := syncProbe(g.n, g.ops, nil)
		if err != nil {
			return nil, err
		}
		out["regmap.msgs_per_write"+g.suffix] = sc.MsgsPerWrite
		out["regmap.msgs_per_read"+g.suffix] = sc.MsgsPerRead
		out["regmap.write_cpu_us"+g.suffix] = sc.WriteCPUUs
		out["regmap.read_cpu_us"+g.suffix] = sc.ReadCPUUs
		out["regmap.heap_bytes_per_op"+g.suffix] = sc.HeapBytesPerOp
		if g.n == 3 {
			out["core.ctrl_bits_per_msg"] = sc.CtrlBitsPerMsg
			out["regmap.addr_bits_per_frame"] = sc.AddrBitsPerFrame
			out["core.rounds_per_write"] = sc.RoundsPerWrite
			out["core.rounds_per_read"] = sc.RoundsPerRead
		}
	}
	return out, nil
}

func probeWire(out map[string]float64, dur time.Duration) {
	codec := wire.Codec{}
	var buf []byte
	out["wire.frame_codec_ns"] = meanNs(dur, func() {
		buf, _ = codec.AppendEncode(buf[:0], probeFrame)
		if _, err := codec.Decode(buf); err != nil {
			panic(err) // the codec rejecting its own encoding is a bug
		}
	})
	req := wire.ClientRequest{ID: 7, Op: wire.ClientPut, Key: probeFrame.Key, Val: writeValue(0, 1)}
	resp := wire.ClientResponse{ID: 7, Status: wire.StatusOK}
	out["wire.client_codec_ns"] = meanNs(dur, func() {
		var err error
		if buf, err = wire.AppendClientRequest(buf[:0], req); err == nil {
			_, err = wire.DecodeClientRequest(buf)
		}
		if err == nil {
			if buf, err = wire.AppendClientResponse(buf[:0], resp); err == nil {
				_, err = wire.DecodeClientResponse(buf)
			}
		}
		if err != nil {
			panic(err)
		}
	})
}

// probeStorage prices one Append+Sync: on a FileWAL in dir (this machine's
// fsync) and on the in-memory MemLog.
func probeStorage(out map[string]float64, dir string, dur time.Duration) error {
	path := filepath.Join(dir, "probe-sync.wal")
	wal, err := storage.OpenFileWAL(path)
	if err != nil {
		return err
	}
	defer os.Remove(path)
	defer wal.Close()
	rec := storage.Record{Key: probeFrame.Key, Lane: 1, Index: 1, Val: writeValue(0, 1)}
	ns, err := typicalNs(dur, func() error {
		wal.Append(rec)
		return wal.Sync()
	})
	if err != nil {
		return err
	}
	out["storage.append_sync_us"] = ns / 1e3

	// A MemLog keeps everything it is given, so each chunk gets a new one.
	mem, fill := storage.NewMemLog(), 0
	out["storage.memlog_append_sync_ns"] = meanNs(dur, func() {
		if fill++; fill == 4096 {
			mem, fill = storage.NewMemLog(), 0
		}
		mem.Append(rec)
		_ = mem.Sync() // MemLog.Sync cannot fail
	})
	return nil
}

// probeRecovery builds a WAL of fixed content — member 0's log of a
// synchronous n=3 run with logging on — and times FileWAL.Replay over it
// and a fresh regmap.Node recovering from it.
func probeRecovery(out map[string]float64, dir string, _ time.Duration) error {
	logs := []storage.StableStorage{storage.NewMemLog(), storage.NewMemLog(), storage.NewMemLog()}
	if _, err := syncProbe(3, 1024, logs); err != nil {
		return err
	}
	path := filepath.Join(dir, "probe-recover.wal")
	defer os.Remove(path)
	wal, err := storage.OpenFileWAL(path)
	if err != nil {
		return err
	}
	defer wal.Close()
	records := 0
	_ = logs[0].Replay(func(r storage.Record) error { // MemLog.Replay only relays fn's error
		wal.Append(r)
		records++
		return nil
	})
	if err := wal.Sync(); err != nil {
		return err
	}
	const rounds = 5
	replayNs, recoverNs := make([]float64, rounds), make([]float64, rounds)
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		if err := wal.Replay(func(storage.Record) error { return nil }); err != nil {
			return err
		}
		replayNs[i] = float64(time.Since(t0))
		node, err := regmap.NewNode(0, syncProbeConfig(3))
		if err != nil {
			return err
		}
		t0 = time.Now()
		if err := node.Recover(wal); err != nil {
			return err
		}
		recoverNs[i] = float64(time.Since(t0))
	}
	sort.Float64s(replayNs)
	sort.Float64s(recoverNs)
	out["storage.replay_us_per_record"] = quantile(replayNs, 0.5) / 1e3 / float64(records)
	out["regmap.recover_ms"] = quantile(recoverNs, 0.5) / 1e6
	return nil
}

// probeInProc prices the mailbox and goroutine hand-offs alone: three
// KeyedNodes wired send = peer.Deliver, no sockets, one Put at a time.
func probeInProc(out map[string]float64, _ string, dur time.Duration) error {
	const n = 3
	nodes := make([]*cluster.KeyedNode, n)
	for i := range nodes {
		store, err := regmap.NewNode(i, syncProbeConfig(n))
		if err != nil {
			return err
		}
		nodes[i] = cluster.NewKeyedNode(i, store, func(to int, msg proto.Message) {
			nodes[to].Deliver(i, msg)
		})
		defer nodes[i].Stop()
	}
	seq := uint64(0)
	ns, err := typicalNs(dur, func() error {
		seq++
		return nodes[0].Put(keyNames[seq%numKeys], writeValue(0, seq))
	})
	out["cluster.inproc_put_us"] = ns / 1e3
	return err
}

// probePingPong bounces one frame between two meshes: one round trip is
// two message delays, 2Δ on this machine's loopback.
func probePingPong(out map[string]float64, _ string, dur time.Duration) error {
	pong := make(chan struct{}, 1)
	var a, b *transport.Mesh
	a, err := transport.NewMesh(0, 2, "127.0.0.1:0", wire.Codec{}, func(int, proto.Message) { pong <- struct{}{} })
	if err != nil {
		return err
	}
	defer a.Close()
	b, err = transport.NewMesh(1, 2, "127.0.0.1:0", wire.Codec{}, func(_ int, msg proto.Message) { _ = b.Send(0, msg) })
	if err != nil {
		return err
	}
	defer b.Close()
	addrs := []string{a.Addr(), b.Addr()}
	if err := a.SetPeers(addrs); err != nil {
		return err
	}
	if err := b.SetPeers(addrs); err != nil {
		return err
	}
	bounce := func() error {
		if err := a.Send(1, probeFrame); err != nil {
			return err
		}
		select {
		case <-pong:
			return nil
		case <-time.After(10 * time.Second):
			return fmt.Errorf("ping-pong probe: no reply")
		}
	}
	for i := 0; i < 64; i++ { // dial both directions before timing
		if err := bounce(); err != nil {
			return err
		}
	}
	ns, err := typicalNs(dur, bounce)
	out["transport.pingpong_rtt_us"] = ns / 1e3
	return err
}

// probeNullRTT prices the client path alone: a regclient.Session against a
// shard.Server whose handler returns at once.
func probeNullRTT(out map[string]float64, _ string, dur time.Duration) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv, err := shard.Serve(ln, 0, 1, func(wire.ClientOp, string, []byte) ([]byte, error) { return nil, nil })
	if err != nil {
		ln.Close()
		return err
	}
	defer srv.Close()
	sess, err := regclient.DialNode(srv.Addr())
	if err != nil {
		return err
	}
	defer sess.Close()
	val := writeValue(0, 1)
	ns, err := typicalNs(dur, func() error { return sess.Put(probeFrame.Key, val) })
	out["shard.null_rtt_us"] = ns / 1e3
	return err
}

// syncCounts are the synchronous probe's results. The message, bit and
// round counts repeat exactly: nothing in the probe depends on a clock, a
// seed or a scheduler.
type syncCounts struct {
	MsgsPerWrite, MsgsPerRead     float64
	CtrlBitsPerMsg                float64 // per logical entry, addressing excluded: the paper's two bits
	AddrBitsPerFrame              float64 // key, lane id and batch framing, per frame
	RoundsPerWrite, RoundsPerRead float64
	WriteCPUUs, ReadCPUUs         float64
	HeapBytesPerOp                float64
}

func syncProbeConfig(n int) regmap.Config {
	writers := make([]int, n)
	for i := range writers {
		writers[i] = i
	}
	return regmap.Config{N: n, DefaultWriters: writers, Coalesce: true}
}

// syncProbe drives an n-process regmap.Node set in one goroutine: start an
// operation, then route Effects.Sends into Deliver in FIFO order, granting
// each node its flush tick after every step, until nothing is in flight.
// ops writes run first, then ops reads, keys and invoking processes taken
// round-robin. logs, if given, is attached as the nodes' stable storage.
func syncProbe(n, ops int, logs []storage.StableStorage) (syncCounts, error) {
	var sc syncCounts
	nodes := make([]*regmap.Node, n)
	for i := range nodes {
		var err error
		if nodes[i], err = regmap.NewNode(i, syncProbeConfig(n)); err != nil {
			return sc, err
		}
		if logs != nil {
			nodes[i].AttachStorage(logs[i])
		}
	}
	type frame struct {
		from, to int
		msg      proto.Message
	}
	var (
		col   metrics.Collector
		queue = make([]frame, 0, 1024)
		done  []proto.Completion
	)
	absorb := func(from int, eff proto.Effects) {
		for _, s := range eff.Sends {
			col.OnSend(s.Msg)
			queue = append(queue, frame{from: from, to: s.To, msg: s.Msg})
		}
		done = append(done, eff.Done...)
	}
	// step takes one call's effects and then grants the node the flush tick
	// KeyedNode grants at the end of a mailbox burst.
	step := func(i int, eff proto.Effects) {
		absorb(i, eff)
		if nodes[i].PendingFlush() {
			absorb(i, nodes[i].Flush())
		}
	}
	run := func(kind proto.OpKind, first int) (rounds float64, err error) {
		for k := 0; k < ops; k++ {
			id := proto.OpID(first + k)
			pid := k % n
			var val proto.Value
			if kind == proto.OpWrite {
				val = writeValue(pid, uint64(id))
			}
			queue, done = queue[:0], done[:0]
			step(pid, nodes[pid].Start(keyNames[k%numKeys], id, kind, val))
			for head := 0; head < len(queue); head++ {
				f := queue[head]
				step(f.to, nodes[f.to].Deliver(f.from, f.msg))
			}
			if len(done) != 1 || done[0].Op != id {
				return 0, fmt.Errorf("synchronous probe: %s %d on process %d ended with completions %v", kind, id, pid, done)
			}
			rounds += float64(done[0].Rounds)
		}
		return rounds / float64(ops), nil
	}
	// phase runs one kind of operation and returns its per-op message
	// count, CPU microseconds and heap bytes, and the mean rounds.
	phase := func(kind proto.OpKind, first int) (msgs, cpuUs, heap, rounds float64, err error) {
		var m0, m1 runtime.MemStats
		before := col.Snapshot().TotalMsgs
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		rounds, err = run(kind, first)
		cpuUs = float64(time.Since(t0)) / 1e3 / float64(ops)
		runtime.ReadMemStats(&m1)
		msgs = float64(col.Snapshot().TotalMsgs-before) / float64(ops)
		heap = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(ops)
		return
	}
	var wHeap, rHeap float64
	var err error
	if sc.MsgsPerWrite, sc.WriteCPUUs, wHeap, sc.RoundsPerWrite, err = phase(proto.OpWrite, 1); err != nil {
		return sc, err
	}
	if sc.MsgsPerRead, sc.ReadCPUUs, rHeap, sc.RoundsPerRead, err = phase(proto.OpRead, 1+ops); err != nil {
		return sc, err
	}
	sc.HeapBytesPerOp = (wHeap + rHeap) / 2
	snap := col.Snapshot()
	sc.CtrlBitsPerMsg = snap.MeanCtrlBitsPerEntry
	sc.AddrBitsPerFrame = float64(snap.AddressingBits) / float64(snap.TotalMsgs)
	return sc, nil
}
