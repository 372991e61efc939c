// Package metrics collects the quantities the paper's Table 1 compares:
// message counts per type, control-bit and data-byte volume, operation
// latencies, and local-memory probes.
//
// A Collector is safe for concurrent use so the same type serves both the
// single-threaded simulator and the goroutine cluster runtime.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"twobitreg/internal/proto"
)

// EntryCounter is implemented by messages that carry several logical
// protocol entries in one frame (the multi-writer register's batched lane
// frames). The census uses it to keep Theorem 2's accounting exact under
// batching: control bits are judged per logical entry, not per frame.
type EntryCounter interface {
	LogicalEntries() int
}

// Addressed is implemented by messages whose ControlBits include
// addressing/framing overhead on top of the per-entry protocol bits — the
// multi-writer lane id and the batch length byte, accounted the same way
// regmap accounts its multiplexing key.
type Addressed interface {
	AddressingBits() int
}

// Collector accumulates transport- and operation-level statistics.
// The zero value is ready to use.
type Collector struct {
	mu sync.Mutex

	msgsByType  map[string]int64
	controlBits int64
	dataBytes   int64
	totalMsgs   int64
	maxCtrlBits int

	// Census accounting: logical protocol entries carried (>= totalMsgs;
	// batched frames carry several) and the addressing/framing bits
	// declared by Addressed messages.
	logicalEntries  int64
	addressingBits  int64
	reads, writes   int64
	readLat, wrtLat latencyAgg
	readRnd, wrtRnd latencyAgg
}

type latencyAgg struct {
	count int64
	sum   float64
	max   float64
}

func (l *latencyAgg) add(v float64) {
	l.count++
	l.sum += v
	if v > l.max {
		l.max = v
	}
}

func (l *latencyAgg) mean() float64 {
	if l.count == 0 {
		return 0
	}
	return l.sum / float64(l.count)
}

// OnSend records one transmitted message. Transports call this once per
// delivery attempt.
func (c *Collector) OnSend(msg proto.Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.msgsByType == nil {
		c.msgsByType = make(map[string]int64)
	}
	c.msgsByType[msg.TypeName()]++
	c.totalMsgs++
	cb := msg.ControlBits()
	c.controlBits += int64(cb)
	if cb > c.maxCtrlBits {
		c.maxCtrlBits = cb
	}
	c.dataBytes += int64(msg.DataBytes())
	if ec, ok := msg.(EntryCounter); ok {
		c.logicalEntries += int64(ec.LogicalEntries())
	} else {
		c.logicalEntries++
	}
	if a, ok := msg.(Addressed); ok {
		c.addressingBits += int64(a.AddressingBits())
	}
}

// OnOp records a completed operation, its latency, and its round complexity
// (proto.Completion.Rounds — quorum-wait phases). The latency unit is
// whatever the caller measures in (Δ units under the simulator, seconds under
// the cluster runtime); Snapshot reports it back unchanged.
func (c *Collector) OnOp(kind proto.OpKind, latency float64, rounds int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch kind {
	case proto.OpRead:
		c.reads++
		c.readLat.add(latency)
		c.readRnd.add(float64(rounds))
	case proto.OpWrite:
		c.writes++
		c.wrtLat.add(latency)
		c.wrtRnd.add(float64(rounds))
	}
}

// Snapshot is a point-in-time copy of collected statistics.
type Snapshot struct {
	TotalMsgs   int64
	MsgsByType  map[string]int64
	ControlBits int64
	DataBytes   int64
	MaxCtrlBits int

	// LogicalEntries counts the protocol entries carried (batched frames
	// carry several); AddressingBits is the declared addressing/framing
	// overhead. MeanCtrlBitsPerEntry = (ControlBits - AddressingBits) /
	// LogicalEntries is the census quantity Theorem 2 bounds: exactly 2
	// for the two-bit registers, batched or not.
	LogicalEntries int64
	AddressingBits int64

	Reads, Writes       int64
	ReadMean, ReadMax   float64
	WriteMean, WriteMax float64
	// Rounds aggregates (mean/max quorum-wait phases per operation, from
	// proto.Completion.Rounds): the round-complexity axis, reported next to
	// the latency means above.
	ReadRoundsMean, ReadRoundsMax   float64
	WriteRoundsMean, WriteRoundsMax float64
	MeanCtrlBitsPerMsg              float64
	MeanCtrlBitsPerEntry            float64
	DistinctMessageTypes            int
}

// Snapshot returns a copy of the current counters.
func (c *Collector) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	byType := make(map[string]int64, len(c.msgsByType))
	for k, v := range c.msgsByType {
		byType[k] = v
	}
	s := Snapshot{
		TotalMsgs:            c.totalMsgs,
		MsgsByType:           byType,
		ControlBits:          c.controlBits,
		DataBytes:            c.dataBytes,
		MaxCtrlBits:          c.maxCtrlBits,
		LogicalEntries:       c.logicalEntries,
		AddressingBits:       c.addressingBits,
		Reads:                c.reads,
		Writes:               c.writes,
		ReadMean:             c.readLat.mean(),
		ReadMax:              c.readLat.max,
		WriteMean:            c.wrtLat.mean(),
		WriteMax:             c.wrtLat.max,
		ReadRoundsMean:       c.readRnd.mean(),
		ReadRoundsMax:        c.readRnd.max,
		WriteRoundsMean:      c.wrtRnd.mean(),
		WriteRoundsMax:       c.wrtRnd.max,
		DistinctMessageTypes: len(c.msgsByType),
	}
	if c.totalMsgs > 0 {
		s.MeanCtrlBitsPerMsg = float64(c.controlBits) / float64(c.totalMsgs)
	}
	if c.logicalEntries > 0 {
		s.MeanCtrlBitsPerEntry = float64(c.controlBits-c.addressingBits) / float64(c.logicalEntries)
	}
	return s
}

// Reset zeroes all counters.
func (c *Collector) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.msgsByType = nil
	c.controlBits = 0
	c.dataBytes = 0
	c.totalMsgs = 0
	c.maxCtrlBits = 0
	c.logicalEntries = 0
	c.addressingBits = 0
	c.reads = 0
	c.writes = 0
	c.readLat = latencyAgg{}
	c.wrtLat = latencyAgg{}
	c.readRnd = latencyAgg{}
	c.wrtRnd = latencyAgg{}
}

// String renders the snapshot as a compact single-line summary.
func (s Snapshot) String() string {
	types := make([]string, 0, len(s.MsgsByType))
	for k := range s.MsgsByType {
		types = append(types, k)
	}
	sort.Strings(types)
	var b strings.Builder
	fmt.Fprintf(&b, "msgs=%d ctrlBits=%d dataBytes=%d types=[", s.TotalMsgs, s.ControlBits, s.DataBytes)
	for i, t := range types {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s:%d", t, s.MsgsByType[t])
	}
	fmt.Fprintf(&b, "] reads=%d writes=%d", s.Reads, s.Writes)
	return b.String()
}
