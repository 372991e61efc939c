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
// One implementation, FileWAL: a write-ahead log with explicit Sync
// points (buffered encode on Append, write+fsync on Sync). The file is an
// 8-byte magic that ends in the format version, then one frame per Sync —
// u32 length, u32 CRC-32C, the records — then zeros: the file grows by
// whole chunks, so a steady-state Sync overwrites allocated space instead
// of changing the file's size. A Sync replays whole or not at all: a torn
// final frame fails its checksum and is cut at open. A log in another
// format (ErrWALFormat) or with a bad frame before a whole one
// (ErrWALCorrupt) is refused. OpenFileWAL puts it on a file on disk;
// NewMemLog puts it on an in-memory file, where the explorer and the tests
// crash a process (Reopen: the pending frame is lost) and replay the very
// bytes a served process writes.
package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
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

// FileWAL is the file-backed write-ahead log. Append encodes the record
// into an in-memory frame; Sync writes the frame at the log's logical end
// and fsyncs the file — one write+fsync per release point (a step, or a
// keyed node's burst), whatever it covers.
//
// On disk the file is the 8-byte magic (its last byte the format
// version), then one frame per Sync: a little-endian u32 body length, a
// u32 CRC-32C of the body, and the body, which is the Sync's records in
// Append order. Past the last frame the file holds zeros: a frame that
// would run past the file's size first grows it by whole chunks of zeros
// (walChunk), so a steady-state Sync overwrites space the file already
// has and its fsync changes the size once per chunk, not once per Sync.
//
// A Sync replays whole or not at all. Replay reads frames until EOF, a
// zero length (the preallocated zeros) or a frame whose checksum fails —
// a torn final Sync, which was never claimed durable because it never
// returned. OpenFileWAL cuts the file there, so the next Sync lands right
// after the last whole frame. It refuses, leaving the file as it is, a
// file in any other format (ErrWALFormat) and a failed frame followed by
// a valid one (ErrWALCorrupt: a later Sync was acknowledged, so the bad
// frame is corruption, not a torn tail). A flip inside a length field, or
// inside the final frame, still reads as a torn tail and is cut.
type FileWAL struct {
	f    file
	buf  []byte // the pending frame: its header, then the records
	end  int64  // logical end, just past the last whole frame; 0 before the magic
	size int64  // the file's size: end, then zeros
}

// file is what a FileWAL does to the file under it: an *os.File, or a
// memFile.
type file interface {
	io.ReaderAt
	io.WriterAt
	Sync() error
	Truncate(size int64) error
	Close() error
}

const (
	walFrameHdr  = 8          // u32 body length, u32 CRC-32C of the body
	walRecordHdr = 16         // u32 key length, lane, index, value length
	walNilVal    = ^uint32(0) // the value-length marker of a nil Value (distinct from an empty one)

	// walChunk is what the file grows by. Three concurrent 100- and
	// 200-byte write+fsync loops (2 vCPUs, ext4 on virtio) ran as fast
	// over 4 KiB to 256 KiB chunks of zeros, and faster than
	// appending, so the chunk is small: the file's size then tracks its
	// log to within one chunk (EXPERIMENTS.md E-PA1).
	walChunk = 8 << 10
)

var (
	// walMagic opens every FileWAL; its last byte is the format version.
	walMagic   = [8]byte{'2', 'b', 'r', 'e', 'g', 'W', 'L', 1}
	walZeros   [walChunk]byte // what a FileWAL grows by
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// ErrWALFormat: the file is not a FileWAL of this format — a log written
// before the magic existed, another version, or not a log at all.
// ErrWALCorrupt: a frame fails its checksum but the frame after it is
// whole, so acknowledged records follow the damage. OpenFileWAL returns
// both wrapped with the path and leaves the file untouched.
var (
	ErrWALFormat  = errors.New("not a write-ahead log of this format")
	ErrWALCorrupt = errors.New("write-ahead log corrupt before its last frame")
)

// OpenFileWAL opens (creating if absent) the WAL at path for appending
// and replay. A torn final frame and the zeros after the last frame are
// cut off first. An empty file, or one holding only a prefix of the magic
// (a crash at creation, before anything was synced), opens as an empty
// log.
func OpenFileWAL(path string) (*FileWAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	w := &FileWAL{f: f, buf: make([]byte, walFrameHdr)}
	fi, err := f.Stat()
	if err == nil {
		w.size = fi.Size()
		err = w.Reopen()
	}
	if err != nil {
		f.Close()
		if errors.Is(err, ErrWALFormat) || errors.Is(err, ErrWALCorrupt) {
			err = fmt.Errorf("storage: %s: %w", path, err)
		}
		return nil, err
	}
	return w, nil
}

// NewMemLog returns an empty FileWAL on a fresh in-memory file.
func NewMemLog() *FileWAL {
	return &FileWAL{f: &memFile{}, buf: make([]byte, walFrameHdr)}
}

// Reopen is a crash and a restart of the process that owns the log: the
// pending frame is lost, and the file is scanned and cut after its last
// whole frame, as OpenFileWAL does. A file in another format or corrupt
// before its last frame is refused and left as it is.
func (w *FileWAL) Reopen() error {
	w.buf = w.buf[:walFrameHdr]
	end, err := scanWAL(w.f, w.size, nil)
	if err == nil {
		err = w.f.Truncate(end)
	}
	if err != nil {
		return err
	}
	w.end, w.size = end, end
	return nil
}

// Append encodes r into the pending frame: four little-endian u32s — key
// length, lane, index, value length (or the nil marker) — then the key
// bytes and the value bytes.
func (w *FileWAL) Append(r Record) {
	vl := uint32(len(r.Val))
	if r.Val == nil {
		vl = walNilVal
	}
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(len(r.Key)))
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(r.Lane))
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(r.Index))
	w.buf = binary.LittleEndian.AppendUint32(w.buf, vl)
	w.buf = append(w.buf, r.Key...)
	w.buf = append(w.buf, r.Val...)
}

// Sync writes the pending frame at the logical end, growing the file
// first if the frame would run past it, and fsyncs the file. A Sync with
// nothing buffered is a no-op — a process step that appended nothing
// costs no I/O.
func (w *FileWAL) Sync() error {
	body := w.buf[walFrameHdr:]
	if len(body) == 0 {
		return nil
	}
	binary.LittleEndian.PutUint32(w.buf[0:], uint32(len(body)))
	binary.LittleEndian.PutUint32(w.buf[4:], crc32.Checksum(body, castagnoli))
	at := max(w.end, int64(len(walMagic)))
	for w.size < at+int64(len(w.buf)) {
		if _, err := w.f.WriteAt(walZeros[:], w.size); err != nil {
			return err
		}
		w.size += walChunk
	}
	if w.end == 0 {
		if _, err := w.f.WriteAt(walMagic[:], 0); err != nil {
			return err
		}
	}
	if _, err := w.f.WriteAt(w.buf, at); err != nil {
		return err
	}
	w.end = at + int64(len(w.buf))
	w.buf = w.buf[:walFrameHdr]
	return w.f.Sync()
}

// Replay streams every durable record from the start of the file.
func (w *FileWAL) Replay(fn func(r Record) error) error {
	_, err := scanWAL(w.f, w.end, fn)
	return err
}

// Len is the log's logical length in bytes: the magic and every synced
// frame, not the zeros the file has grown by.
func (w *FileWAL) Len() int64 { return w.end }

// Close closes the underlying file without syncing pending records (they
// were never claimed durable).
func (w *FileWAL) Close() error { return w.f.Close() }

// scanWAL reads the first size bytes of f through one buffered reader,
// passing each record of each whole frame to fn (nil: check only), and
// returns the logical end: just past the last whole frame, or 0 for an
// empty log that has no magic yet.
func scanWAL(f io.ReaderAt, size int64, fn func(Record) error) (int64, error) {
	rd := bufio.NewReaderSize(io.NewSectionReader(f, 0, size), 64<<10)
	var magic [len(walMagic)]byte
	n, err := io.ReadFull(rd, magic[:])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return 0, err
	}
	if magic != walMagic {
		k := 0
		for k < n && magic[k] == walMagic[k] {
			k++
		}
		zeros, err := onlyZeros(rd, magic[k:n])
		if err != nil {
			return 0, err
		}
		if !zeros {
			return 0, fmt.Errorf("%w (no magic %q)", ErrWALFormat, walMagic[:])
		}
		return 0, nil // a crash at creation: nothing was ever synced
	}
	end := int64(len(walMagic))
	for {
		body, ok, err := readFrame(rd, size-end)
		if err != nil || body == nil {
			return end, err
		}
		if !ok {
			// A torn final Sync is followed by nothing whole: Syncs are
			// serial, and this one never returned.
			next, nextOK, err := readFrame(rd, size-end-int64(walFrameHdr+len(body)))
			if err != nil {
				return end, err
			}
			if next != nil && nextOK {
				return end, fmt.Errorf("%w: frame at offset %d fails its checksum", ErrWALCorrupt, end)
			}
			return end, nil
		}
		if err := decodeRecords(body, fn); err != nil {
			return end, err
		}
		end += int64(walFrameHdr + len(body))
	}
}

// readFrame reads the next frame of a log with left bytes remaining. It
// returns a nil body at the end of the frames — EOF, a zero length or a
// length past the file's end — and ok reports the checksum.
func readFrame(rd *bufio.Reader, left int64) (body []byte, ok bool, err error) {
	var hdr [walFrameHdr]byte
	if _, err := io.ReadFull(rd, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			err = nil
		}
		return nil, false, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:])
	if n == 0 || int64(n) > left-walFrameHdr {
		return nil, false, nil
	}
	body = make([]byte, n)
	if _, err := io.ReadFull(rd, body); err != nil {
		return nil, false, err
	}
	return body, crc32.Checksum(body, castagnoli) == binary.LittleEndian.Uint32(hdr[4:]), nil
}

// onlyZeros reports whether head and everything rd has left are zeros.
func onlyZeros(rd io.Reader, head []byte) (bool, error) {
	var buf [4096]byte
	for b := head; ; {
		for _, c := range b {
			if c != 0 {
				return false, nil
			}
		}
		n, err := rd.Read(buf[:])
		if err == io.EOF {
			return true, nil
		}
		if err != nil {
			return false, err
		}
		b = buf[:n]
	}
}

// errWALRecord: a frame whose body does not split into whole records
// passed its checksum, so no Sync of this format wrote it.
var errWALRecord = fmt.Errorf("%w: a frame's records overrun it", ErrWALCorrupt)

// decodeRecords passes each record of a frame's body to fn (nil: check
// only). A record's value aliases body.
func decodeRecords(body []byte, fn func(Record) error) error {
	for len(body) > 0 {
		if len(body) < walRecordHdr {
			return errWALRecord
		}
		keyLen := uint64(binary.LittleEndian.Uint32(body[0:]))
		valLen := binary.LittleEndian.Uint32(body[12:])
		vl := uint64(valLen)
		if valLen == walNilVal {
			vl = 0
		}
		rest := body[walRecordHdr:]
		if keyLen+vl > uint64(len(rest)) {
			return errWALRecord
		}
		if fn != nil {
			r := Record{
				Key:   string(rest[:keyLen]),
				Lane:  int(binary.LittleEndian.Uint32(body[4:])),
				Index: int(binary.LittleEndian.Uint32(body[8:])),
			}
			if valLen != walNilVal {
				r.Val = proto.Value(rest[keyLen : keyLen+vl : keyLen+vl])
			}
			if err := fn(r); err != nil {
				return err
			}
		}
		body = rest[keyLen+vl:]
	}
	return nil
}

// memFile is the in-memory file under NewMemLog's FileWAL. A write lands
// at once and Sync does nothing, so what a crash keeps is what a process
// crash keeps on disk: every byte a Sync wrote.
type memFile struct{ data []byte }

func (m *memFile) ReadAt(p []byte, off int64) (int, error) {
	return bytes.NewReader(m.data).ReadAt(p, off)
}

func (m *memFile) WriteAt(p []byte, off int64) (int, error) {
	if end := int(off) + len(p); end > len(m.data) {
		m.data = append(m.data, make([]byte, end-len(m.data))...)
	}
	return copy(m.data[off:], p), nil
}

// Truncate only shortens: a FileWAL cuts its file, never extends it.
func (m *memFile) Truncate(size int64) error {
	m.data = m.data[:size]
	return nil
}

func (m *memFile) Sync() error  { return nil }
func (m *memFile) Close() error { return nil }

var _ StableStorage = (*FileWAL)(nil)
