// Package storage is the pluggable persistence layer for durable
// registers: a stable-storage abstraction the register processes log
// their lane appends through, so a crashed process can be restarted and
// recover every value it attested to before the crash.
//
// The durability contract is deliberately small. A register process
// appends one Record per lane append (its own writes AND the values it
// adopts from other writers' streams), and syncs where it releases: Sync
// returns BEFORE anything the records back — echoes and freshness answers
// to peers, completions to clients — leaves the process, so everything a
// process has told a peer or a client is on stable storage and everything
// still buffered at a crash was never attested. The durable register is
// the multi-writer one (core.MWProc): a bare register releases, and
// syncs, every protocol step; the keyed store hosting it (regmap.Node)
// once per burst of steps — the sync point is the burst boundary.
// Recovery replays the log in append order and rebuilds the lane
// histories; the volatile link-synchronisation counters (w_sync columns
// for peers, r_sync) are NOT persisted — they are re-established by the
// restart protocol (Recoverable.PeerRestarted), which resets both ends of
// every link of the revived process and re-ships the backlog.
//
// Two implementations:
//
//   - MemLog: deterministic in-memory fake for the explorer. A crash is
//     modelled by DropUnsynced (buffered records vanish), and
//     LoseNextSyncs injects sync-loss faults (fsync that lies).
//   - FileWAL: file-backed append-only write-ahead log with explicit
//     Sync points (buffered encode on Append, write+fsync on Sync) and a
//     torn-tail-tolerant Replay.
package storage

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"twobitreg/internal/proto"
)

// Record is one durable lane append: process-local evidence that the
// value Val occupies index Index of writer Lane's stream. Key
// distinguishes registers when one log serves a keyed store (regmap); a
// bare register logs Key == "".
type Record struct {
	Key   string
	Lane  int
	Index int
	Val   proto.Value
}

// StableStorage is the persistence interface a durable register process
// logs through. Append buffers a record (infallibly — errors surface at
// the Sync point, which is where durability is claimed); Sync makes every
// buffered record durable; Replay streams the durable records in append
// order. Implementations need not be safe for concurrent use: a log
// belongs to one process's serial event loop.
type StableStorage interface {
	Append(r Record)
	Sync() error
	Replay(fn func(r Record) error) error
	Close() error
}

// Recoverable is implemented by register processes that support
// crash-restart recovery through a StableStorage: the multi-writer
// register (core.MWProc) and the keyed store that hosts it (regmap.Node,
// regmap.KeyedProc). The lifecycle:
//
//	p := alg.New(id, n, writer)   // fresh process
//	p.(Recoverable).Recover(log)  // replay durable state, attach log
//	// every live peer j runs p_j.PeerRestarted(id),
//	// and the revived process runs p.PeerRestarted(j) for every peer j:
//	// both ends of every link reset to zero and re-ship their backlog.
//
// AttachStorage alone (no Recover) arms logging on a process starting
// from scratch. PeerRestarted needs no storage: a volatile peer of a
// restarted process resets its end of the link too. A process that does
// not implement Recoverable (the SWMR registers of Figure 1, which are
// crash-stop) degrades to plain crash-stop under the restart adversary.
type Recoverable interface {
	AttachStorage(s StableStorage)
	Recover(s StableStorage) error
	PeerRestarted(peer int) proto.Effects
}

// MemLog is the deterministic in-memory StableStorage the explorer's
// restart adversary uses. Records buffer in an unsynced tail until Sync
// promotes them; DropUnsynced models the crash (the tail vanishes);
// LoseNextSyncs makes the next k Syncs silently discard their records —
// the injectable sync-loss fault. The zero value is ready to use.
type MemLog struct {
	synced    []Record
	unsynced  []Record
	loseSyncs int
	syncs     int
}

// NewMemLog returns an empty in-memory log.
func NewMemLog() *MemLog { return &MemLog{} }

// Append buffers r in the unsynced tail.
func (m *MemLog) Append(r Record) {
	r.Val = r.Val.Clone()
	m.unsynced = append(m.unsynced, r)
}

// Sync promotes the unsynced tail to durable state — unless a
// LoseNextSyncs fault is armed, in which case the tail is silently
// discarded (the fsync that lied).
func (m *MemLog) Sync() error {
	m.syncs++
	if m.loseSyncs > 0 {
		m.loseSyncs--
		m.unsynced = m.unsynced[:0]
		return nil
	}
	m.synced = append(m.synced, m.unsynced...)
	m.unsynced = m.unsynced[:0]
	return nil
}

// Replay streams the durable (synced) records in append order.
func (m *MemLog) Replay(fn func(r Record) error) error {
	for _, r := range m.synced {
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

// Close is a no-op.
func (m *MemLog) Close() error { return nil }

// DropUnsynced models the crash: buffered records that were never synced
// are lost.
func (m *MemLog) DropUnsynced() { m.unsynced = m.unsynced[:0] }

// LoseNextSyncs arms the sync-loss fault: the next k calls to Sync
// silently discard their buffered records instead of promoting them.
func (m *MemLog) LoseNextSyncs(k int) { m.loseSyncs = k }

// SyncedLen returns the number of durable records.
func (m *MemLog) SyncedLen() int { return len(m.synced) }

// Syncs returns the number of Sync calls observed (introspection for
// tests asserting the sync-before-attest discipline).
func (m *MemLog) Syncs() int { return m.syncs }

// FileWAL is the file-backed append-only write-ahead log. Append encodes
// the record into an in-memory buffer; Sync writes the buffer to the
// file and fsyncs it — one write+fsync per release point (a step, or a
// keyed node's burst), whatever it covers. Replay tolerates a torn tail: a final
// record truncated by a crash mid-write is ignored, matching the
// durability contract (it was never claimed durable, because its Sync
// never returned).
type FileWAL struct {
	f       *os.File
	buf     []byte
	scratch [16]byte
	noFsync bool // benchmarks only: measure encode+write without the fsync
}

// walNilVal marks a nil Value (distinct from an empty one — the protocol
// distinguishes them) in the on-disk length field.
const walNilVal = ^uint32(0)

// OpenFileWAL opens (creating if absent) the WAL at path for appending
// and replay. A torn tail left by a crash mid-Sync is cut off first:
// Replay stops at the first incomplete frame, so a record appended after
// it would never be read back.
func OpenFileWAL(path string) (*FileWAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	rd := newTornReader(f)
	for ok := true; ok && err == nil; {
		_, ok, err = rd.next()
	}
	if err == nil {
		err = f.Truncate(rd.end)
	}
	if err == nil {
		_, err = f.Seek(rd.end, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &FileWAL{f: f}, nil
}

// Append encodes r into the pending buffer. The frame layout is four
// little-endian uint32s — key length, lane, index, value length (or the
// nil marker) — followed by the key bytes and the value bytes.
func (w *FileWAL) Append(r Record) {
	b := w.scratch[:]
	binary.LittleEndian.PutUint32(b[0:], uint32(len(r.Key)))
	binary.LittleEndian.PutUint32(b[4:], uint32(r.Lane))
	binary.LittleEndian.PutUint32(b[8:], uint32(r.Index))
	if r.Val == nil {
		binary.LittleEndian.PutUint32(b[12:], walNilVal)
	} else {
		binary.LittleEndian.PutUint32(b[12:], uint32(len(r.Val)))
	}
	w.buf = append(w.buf, b...)
	w.buf = append(w.buf, r.Key...)
	w.buf = append(w.buf, r.Val...)
}

// Sync writes the pending buffer and fsyncs the file. A Sync with
// nothing buffered is a no-op — a process step that appended nothing
// costs no I/O.
func (w *FileWAL) Sync() error {
	if len(w.buf) == 0 {
		return nil
	}
	if _, err := w.f.Write(w.buf); err != nil {
		return err
	}
	w.buf = w.buf[:0]
	if w.noFsync {
		return nil
	}
	return w.f.Sync()
}

// Replay streams every durable record from the start of the file. A
// torn final record (crash mid-write) terminates the replay silently.
func (w *FileWAL) Replay(fn func(r Record) error) error {
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	defer w.f.Seek(0, io.SeekEnd)
	rd := newTornReader(w.f)
	for {
		r, ok, err := rd.next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if err := fn(r); err != nil {
			return err
		}
	}
}

// Close closes the underlying file without syncing pending records (they
// were never claimed durable).
func (w *FileWAL) Close() error { return w.f.Close() }

// tornReader decodes WAL frames, treating any truncated tail as
// end-of-log. end is the offset just past the last whole frame read.
type tornReader struct {
	r   io.Reader
	hdr [16]byte
	end int64
}

func newTornReader(r io.Reader) *tornReader { return &tornReader{r: r} }

func (t *tornReader) next() (Record, bool, error) {
	if _, err := io.ReadFull(t.r, t.hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return Record{}, false, nil
		}
		return Record{}, false, err
	}
	keyLen := binary.LittleEndian.Uint32(t.hdr[0:])
	lane := binary.LittleEndian.Uint32(t.hdr[4:])
	index := binary.LittleEndian.Uint32(t.hdr[8:])
	valLen := binary.LittleEndian.Uint32(t.hdr[12:])
	const maxFrame = 1 << 24
	vl := valLen
	if valLen == walNilVal {
		vl = 0
	}
	if keyLen > maxFrame || vl > maxFrame {
		return Record{}, false, fmt.Errorf("storage: corrupt WAL frame (keyLen=%d valLen=%d)", keyLen, valLen)
	}
	payload := make([]byte, keyLen+vl)
	if _, err := io.ReadFull(t.r, payload); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return Record{}, false, nil // torn tail: never claimed durable
		}
		return Record{}, false, err
	}
	t.end += int64(len(t.hdr) + len(payload))
	rec := Record{
		Key:   string(payload[:keyLen]),
		Lane:  int(lane),
		Index: int(index),
	}
	if valLen != walNilVal {
		rec.Val = proto.Value(payload[keyLen:])
	}
	return rec, true, nil
}

var (
	_ StableStorage = (*MemLog)(nil)
	_ StableStorage = (*FileWAL)(nil)
)
