package core

import (
	"math/bits"

	"twobitreg/internal/proto"
)

// The paper's four message types. WRITE0/WRITE1 carry a data value plus one
// parity bit folded into the type; READ and PROCEED carry nothing but their
// type. Two bits therefore encode the entire control state of any message:
//
//	00 WRITE0   01 WRITE1   10 READ   11 PROCEED
//
// Wire encoding lives in internal/wire; these structs are the in-memory form.

// WriteMsg is WRITE0(v) when Bit == 0 and WRITE1(v) when Bit == 1.
//
// When the process runs in the explicit-sequence-number ablation mode
// (WithExplicitSeqnums), Seq carries the write's sequence number and counts
// toward ControlBits; otherwise Seq is zero and ignored.
type WriteMsg struct {
	Bit uint8
	Val proto.Value
	Seq int // ablation mode only
}

// TypeName returns "WRITE0" or "WRITE1".
func (m WriteMsg) TypeName() string {
	if m.Bit == 0 {
		return "WRITE0"
	}
	return "WRITE1"
}

// ControlBits is 2, or 2+64 in the explicit-seqnum ablation.
func (m WriteMsg) ControlBits() int {
	if m.Seq != 0 {
		return 2 + 64
	}
	return 2
}

// DataBytes is the size of the written value.
func (m WriteMsg) DataBytes() int { return len(m.Val) }

// ReadMsg is READ(): a read request carrying only its type.
type ReadMsg struct{}

// TypeName returns "READ".
func (ReadMsg) TypeName() string { return "READ" }

// ControlBits is 2.
func (ReadMsg) ControlBits() int { return 2 }

// DataBytes is 0.
func (ReadMsg) DataBytes() int { return 0 }

// ProceedMsg is PROCEED(): the read acknowledgement carrying only its type.
type ProceedMsg struct{}

// TypeName returns "PROCEED".
func (ProceedMsg) TypeName() string { return "PROCEED" }

// ControlBits is 2.
func (ProceedMsg) ControlBits() int { return 2 }

// DataBytes is 0.
func (ProceedMsg) DataBytes() int { return 0 }

// WriterIDBits is the addressing cost of multiplexing per-writer lanes on
// one link: a one-byte lane-owner id on every lane WRITE. It is accounted
// in LaneMsg.ControlBits the same way regmap accounts its multiplexing key —
// the per-lane protocol control stays exactly two bits, the id is the price
// of telling lanes apart.
const WriterIDBits = 8

// BatchLenBits is the framing cost of one byte of a frame's uvarint entry
// count (one byte below 128). Like the writer id, it is addressing/framing —
// accounted honestly in ControlBits but separate from the two per-entry
// protocol bits, so the Theorem-2 census (exactly two control bits per
// logical entry) stays exact for batched runs.
const BatchLenBits = 8

// CountBits is the framing cost of the uvarint count c.
func CountBits(c int) int { return BatchLenBits * ((bits.Len(uint(c|1)) + 6) / 7) }

// MaxBatchDataBytes is the one byte budget of framing: laneBatcher.flush
// and regmap's coalescer end a frame where the next stretch of equal values
// (or keyed subframe) would push it past this many bytes, far below the
// transports' frame cap. One bigger on its own ships alone.
const MaxBatchDataBytes = 1 << 20

// MaxFrameEntries bounds the entries a lane frame stands for, so a compact
// frame of a few bytes from a corrupt peer cannot make its receiver append
// more history slots (decoders refuse it). Only a padded stretch this long —
// 1<<20 foreign writes on one register while its writer was silent — is
// ever cut (laneBatcher.flush).
const MaxFrameEntries = MaxBatchDataBytes

// LaneMsg wraps one lane's WRITE with the id of the writer whose stream it
// belongs to (multi-writer register only). READ and PROCEED need no wrapper:
// they quantify over all lanes at the receiver.
type LaneMsg struct {
	Writer int
	M      WriteMsg
}

// TypeName returns the inner WRITE's name.
func (m LaneMsg) TypeName() string { return m.M.TypeName() }

// ControlBits is the inner WRITE's two bits plus the writer-id addressing.
func (m LaneMsg) ControlBits() int { return m.M.ControlBits() + WriterIDBits }

// DataBytes is the size of the written value.
func (m LaneMsg) DataBytes() int { return m.M.DataBytes() }

// LogicalEntries implements metrics.EntryCounter: one lane WRITE is one
// stream entry.
func (m LaneMsg) LogicalEntries() int { return 1 }

// AddressingBits implements metrics.Addressed: the writer-id byte.
func (m LaneMsg) AddressingBits() int { return WriterIDBits }

// LaneBatchMsg coalesces a run of consecutive lane WRITEs into one frame:
// entry i carries Vals[i] at parity (Bit+i) mod 2, so the receiver unpacks
// it into the same parity-gated reorder buffer that sequences single
// WRITEs. Each logical entry still costs exactly two control bits; the
// writer id and the uvarint count are addressing/framing, accounted like
// regmap's key. Batches collapse the per-entry flood rounds of lane padding
// and catch-up (Rule R2) into one link round.
type LaneBatchMsg struct {
	Writer int
	Bit    uint8 // parity of the first entry
	Vals   []proto.Value
}

// TypeName returns "WRITEB".
func (LaneBatchMsg) TypeName() string { return "WRITEB" }

// ControlBits is two bits per logical entry plus writer-id and count
// framing.
func (m LaneBatchMsg) ControlBits() int { return 2*len(m.Vals) + m.AddressingBits() }

// DataBytes sums the carried values.
func (m LaneBatchMsg) DataBytes() int {
	n := 0
	for _, v := range m.Vals {
		n += len(v)
	}
	return n
}

// LogicalEntries implements metrics.EntryCounter.
func (m LaneBatchMsg) LogicalEntries() int { return len(m.Vals) }

// AddressingBits implements metrics.Addressed.
func (m LaneBatchMsg) AddressingBits() int { return WriterIDBits + CountBits(len(m.Vals)) }

// LaneCompactMsg is the lane-compaction frame: a run of Count consecutive
// entries that all carry the same value Val — the padding a dominated
// writer appends to re-anchor its alternating bit at a dominating index.
// Only the head and tail entries ship as logical entries (two control bits
// each: the head parity is Bit, the tail parity is implied by Count); the
// intermediate entries are materialized by the receiver from the count.
// This is what bounds a skewed writer's padding cost: the frame's size is
// independent of the gap it covers.
type LaneCompactMsg struct {
	Writer int
	Bit    uint8 // parity of the head entry
	Count  int   // total entries represented, 2..MaxFrameEntries
	Val    proto.Value
}

// TypeName returns "WRITEC".
func (LaneCompactMsg) TypeName() string { return "WRITEC" }

// ControlBits is two bits for the head entry, two for the tail, plus
// writer-id and count framing. The Count-2 intermediate entries never ship
// as entries — that is the compaction.
func (m LaneCompactMsg) ControlBits() int { return 2 + 2 + m.AddressingBits() }

// DataBytes is the shared value, shipped once.
func (m LaneCompactMsg) DataBytes() int { return len(m.Val) }

// LogicalEntries implements metrics.EntryCounter: head and tail.
func (LaneCompactMsg) LogicalEntries() int { return 2 }

// AddressingBits implements metrics.Addressed.
func (m LaneCompactMsg) AddressingBits() int { return WriterIDBits + CountBits(m.Count) }

var (
	_ proto.Message = WriteMsg{}
	_ proto.Message = ReadMsg{}
	_ proto.Message = ProceedMsg{}
	_ proto.Message = LaneMsg{}
	_ proto.Message = LaneBatchMsg{}
	_ proto.Message = LaneCompactMsg{}
)
