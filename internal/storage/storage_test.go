package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"twobitreg/internal/proto"
)

func collect(t *testing.T, s StableStorage) []Record {
	t.Helper()
	var got []Record
	if err := s.Replay(func(r Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got
}

func wantRecords(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d (%v vs %v)", len(got), len(want), got, want)
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Key != w.Key || g.Lane != w.Lane || g.Index != w.Index || !g.Val.Equal(w.Val) {
			t.Fatalf("record %d = %+v, want %+v", i, g, w)
		}
	}
}

// TestMemLogSyncAndCrash: a crash (Reopen) loses the pending frame and
// keeps every synced one.
func TestMemLogSyncAndCrash(t *testing.T) {
	m := NewMemLog()
	r1 := Record{Lane: 0, Index: 1, Val: proto.Value("a")}
	r2 := Record{Lane: 0, Index: 2, Val: proto.Value("b")}
	m.Append(r1)
	if got := collect(t, m); len(got) != 0 {
		t.Fatalf("unsynced record replayed: %v", got)
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	m.Append(r2)
	if err := m.Reopen(); err != nil { // crash before the sync point
		t.Fatal(err)
	}
	wantRecords(t, collect(t, m), []Record{r1})
	// The lost frame leaves no gap: the next Sync lands after r1.
	m.Append(r2)
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := m.Reopen(); err != nil {
		t.Fatal(err)
	}
	wantRecords(t, collect(t, m), []Record{r1, r2})
}

// TestMemLogAppendClonesValue: Append encodes the value, so a caller that
// reuses its buffer afterwards changes nothing the log replays.
func TestMemLogAppendClonesValue(t *testing.T) {
	m := NewMemLog()
	v := proto.Value("mutate-me")
	m.Append(Record{Index: 1, Val: v})
	v[0] = 'X'
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := m.Reopen(); err != nil {
		t.Fatal(err)
	}
	got := collect(t, m)
	if len(got) != 1 || string(got[0].Val) != "mutate-me" {
		t.Fatalf("log aliased caller's value: %q", got)
	}
}

// TestMemLogMatchesFileWAL: one script of Appends and Syncs leaves an
// in-memory log byte for byte what it leaves in a file — the magic, the
// frames and the chunks of zeros — and both replay the same records,
// before a crash (Reopen) and after it.
func TestMemLogMatchesFileWAL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	disk := reopen(t, path)
	defer disk.Close()
	mem := NewMemLog()
	logs := []*FileWAL{disk, mem}
	same := func(when string) {
		t.Helper()
		onDisk, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if inMem := mem.f.(*memFile).data; !bytes.Equal(onDisk, inMem) {
			t.Fatalf("%s: the file holds %d bytes, the in-memory log %d, or they differ", when, len(onDisk), len(inMem))
		}
		if disk.Len() != mem.Len() {
			t.Fatalf("%s: Len %d on disk, %d in memory", when, disk.Len(), mem.Len())
		}
		wantRecords(t, collect(t, mem), collect(t, disk))
	}
	big := proto.Value(bytes.Repeat([]byte("b"), walChunk+100)) // a frame past one chunk
	script := [][]Record{
		{{Key: "k", Lane: 0, Index: 1, Val: proto.Value("one")}},
		nil, // an empty Sync writes nothing
		{{Key: "", Lane: 1, Index: 1, Val: proto.Value{}}, {Key: "k2", Lane: 2, Index: 1, Val: nil}},
		{{Key: "k", Lane: 0, Index: 2, Val: big}},
	}
	for i, fr := range script {
		for _, w := range logs {
			for _, r := range fr {
				w.Append(r)
			}
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		same(fmt.Sprintf("sync %d", i+1))
	}
	for _, w := range logs {
		w.Append(Record{Key: "k", Lane: 0, Index: 3, Val: proto.Value("pending")})
		if err := w.Reopen(); err != nil {
			t.Fatal(err)
		}
	}
	same("reopen")
	for _, w := range logs {
		w.Append(Record{Key: "k", Lane: 0, Index: 3, Val: proto.Value("after")})
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	same("sync after reopen")
	if got := len(collect(t, mem)); got != 5 {
		t.Fatalf("replayed %d records, want 5", got)
	}
}

func TestFileWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Key: "k0001", Lane: 2, Index: 1, Val: proto.Value("v1")},
		{Key: "", Lane: 0, Index: 2, Val: proto.Value{}}, // empty value, not nil
		{Key: "k0002", Lane: 1, Index: 3, Val: nil},      // nil value survives as nil
	}
	for _, r := range recs {
		w.Append(r)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	wantRecords(t, collect(t, w), recs)
	// nil/empty distinction (proto.Value.Equal treats them as different).
	got := collect(t, w)
	if got[1].Val == nil || got[2].Val != nil {
		t.Fatalf("nil/empty value distinction lost: %#v / %#v", got[1].Val, got[2].Val)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen and replay: durability across process lifetimes.
	w2, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	wantRecords(t, collect(t, w2), recs)
	// Appends after a replay land after the existing records.
	extra := Record{Key: "k0001", Lane: 2, Index: 4, Val: proto.Value("v4")}
	w2.Append(extra)
	if err := w2.Sync(); err != nil {
		t.Fatal(err)
	}
	wantRecords(t, collect(t, w2), append(append([]Record{}, recs...), extra))
}

func TestFileWALUnsyncedNotDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(Record{Index: 1, Val: proto.Value("buffered")})
	if err := w.Close(); err != nil { // crash: no Sync
		t.Fatal(err)
	}
	w2, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := collect(t, w2); len(got) != 0 {
		t.Fatalf("unsynced records survived the crash: %v", got)
	}
}

// syncFrames writes each group of records as one Sync to a new log at
// path and returns the log, still open.
func syncFrames(t *testing.T, path string, frames ...[]Record) *FileWAL {
	t.Helper()
	w := reopen(t, path)
	for _, fr := range frames {
		for _, r := range fr {
			w.Append(r)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// tornSync is a Sync the power cut short: the pending frame is sealed as
// Sync seals it, but only its first keep bytes reach the file.
func tornSync(t *testing.T, w *FileWAL, keep int) {
	t.Helper()
	body := w.buf[walFrameHdr:]
	binary.LittleEndian.PutUint32(w.buf[0:], uint32(len(body)))
	binary.LittleEndian.PutUint32(w.buf[4:], crc32.Checksum(body, castagnoli))
	if _, err := w.f.WriteAt(w.buf[:keep], w.end); err != nil {
		t.Fatal(err)
	}
}

func reopen(t *testing.T, path string) *FileWAL {
	t.Helper()
	w, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestFileWALTornTail: a file cut inside its final frame — in the frame's
// body, or in its header — replays every frame before it.
func TestFileWALTornTail(t *testing.T) {
	good := Record{Key: "k", Lane: 1, Index: 7, Val: proto.Value("good")}
	torn := Record{Key: "k", Lane: 1, Index: 8, Val: proto.Value("torn-away")}
	tornLen := int64(walFrameHdr + walRecordHdr + len(torn.Key) + len(torn.Val))
	for _, cut := range []int64{5, tornLen - 6} {
		path := filepath.Join(t.TempDir(), "wal")
		w := syncFrames(t, path, []Record{good}, []Record{torn})
		end := w.Len()
		w.Close()
		if err := os.Truncate(path, end-cut); err != nil {
			t.Fatal(err)
		}
		w2 := reopen(t, path)
		wantRecords(t, collect(t, w2), []Record{good})
		if w2.Len() != end-tornLen {
			t.Errorf("cut %d: reopened at %d bytes, want %d", cut, w2.Len(), end-tornLen)
		}
		w2.Close()
	}
}

// TestFileWALTornFrameDropsWhole: a final Sync torn anywhere — in its
// length, its checksum or any of its records — drops all its records,
// the frames before it replay, and the next Sync lands right after them.
func TestFileWALTornFrameDropsWhole(t *testing.T) {
	kept := [][]Record{
		{{Key: "a", Lane: 0, Index: 1, Val: proto.Value("one")}},
		{{Key: "a", Lane: 1, Index: 1, Val: proto.Value("two")}, {Key: "b", Lane: 1, Index: 2, Val: nil}},
	}
	torn := []Record{
		{Key: "a", Lane: 2, Index: 1, Val: proto.Value("pad")},
		{Key: "a", Lane: 2, Index: 2, Val: proto.Value("pad")},
		{Key: "a", Lane: 2, Index: 3, Val: proto.Value("pad")},
	}
	next := Record{Key: "c", Lane: 0, Index: 2, Val: proto.Value("next")}
	want := append(append([]Record{}, kept[0]...), kept[1]...)
	frameLen := walFrameHdr + len(torn)*(walRecordHdr+len("a")+len("pad"))
	for keep := 1; keep < frameLen; keep += 3 {
		path := filepath.Join(t.TempDir(), "wal")
		w := syncFrames(t, path, kept...)
		end := w.Len()
		for _, r := range torn {
			w.Append(r)
		}
		tornSync(t, w, keep)
		w.Close()

		w2 := reopen(t, path)
		wantRecords(t, collect(t, w2), want)
		if w2.Len() != end {
			t.Fatalf("keep %d: reopened at %d bytes, want %d", keep, w2.Len(), end)
		}
		w2.Append(next)
		if err := w2.Sync(); err != nil {
			t.Fatal(err)
		}
		w2.Close()
		w3 := reopen(t, path)
		wantRecords(t, collect(t, w3), append(append([]Record{}, want...), next))
		w3.Close()
	}
}

// TestFileWALAppendAfterTornTail: a record appended after a power-loss tear
// must replay. Reopening cuts the torn frame off, so the next append lands
// right after the last whole frame instead of behind bytes Replay stops at.
func TestFileWALAppendAfterTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	recs := []Record{
		{Key: "k", Lane: 0, Index: 1, Val: proto.Value("one")},
		{Key: "k", Lane: 0, Index: 2, Val: proto.Value("two")},
		{Key: "k", Lane: 0, Index: 3, Val: proto.Value("three")},
	}
	w := syncFrames(t, path, recs[:2])
	// The power fails mid-write: part of the next frame reaches the disk.
	w.Append(Record{Key: "k", Lane: 0, Index: 3, Val: proto.Value("lost")})
	tornSync(t, w, len(w.buf)-2)
	w.Close()

	w2 := reopen(t, path)
	wantRecords(t, collect(t, w2), recs[:2])
	w2.Append(recs[2])
	if err := w2.Sync(); err != nil {
		t.Fatal(err)
	}
	w2.Close()

	w3 := reopen(t, path)
	defer w3.Close()
	wantRecords(t, collect(t, w3), recs)
}

// TestFileWALEmptySyncIsNoop: a Sync with nothing buffered writes nothing —
// not the magic on a new log, not a frame after a synced one.
func TestFileWALEmptySyncIsNoop(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 || w.Len() != 0 {
		t.Fatalf("empty Sync on a new log wrote bytes: size=%d len=%d err=%v", fi.Size(), w.Len(), err)
	}
	w.Append(Record{Key: "k", Index: 1, Val: proto.Value("v")})
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	end := w.Len()
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(before, after) || w.Len() != end {
		t.Fatalf("empty Sync changed the log: %d -> %d bytes, len %d -> %d, err=%v",
			len(before), len(after), end, w.Len(), err)
	}
}

// TestFileWALSyncKeepsSizeWithinChunk pins the mechanism: the file grows
// in whole chunks of zeros, so its size changes only on a Sync whose frame
// crosses the allocated end, and a frame larger than a chunk grows it by
// as many chunks as the frame needs.
func TestFileWALSyncKeepsSizeWithinChunk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.f = noSync{w.f.(*os.File)}
	size := func() int64 {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	sync := func(val proto.Value) (grew bool) {
		t.Helper()
		before, end := size(), w.Len()
		w.Append(Record{Key: "k", Index: 1, Val: val})
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		after := size()
		crosses := w.Len() > before
		if want := (w.Len() + walChunk - 1) / walChunk * walChunk; after != want {
			t.Fatalf("frame %d..%d: file is %d bytes, want %d (whole chunks)", end, w.Len(), after, want)
		}
		if (after != before) != crosses {
			t.Fatalf("frame %d..%d: size %d -> %d, crosses the allocated end: %v", end, w.Len(), before, after, crosses)
		}
		return after != before
	}
	val := proto.Value(bytes.Repeat([]byte("v"), 600))
	growths := 0
	for w.Len() < 2*walChunk+walChunk/2 {
		if sync(val) {
			growths++
		}
	}
	if growths != 3 {
		t.Errorf("%d growths over 2.5 chunks of 600-byte frames, want 3", growths)
	}
	// The log ends within 600 bytes past 2.5 chunks, the file at 3: a
	// 3-chunk value needs 3 more.
	before := size()
	sync(make(proto.Value, 3*walChunk))
	if got := size() - before; got != 3*walChunk {
		t.Errorf("a 3-chunk value grew the file by %d bytes, want 3 chunks (%d)", got, 3*walChunk)
	}
}

// preMagicLog is a log in the format before the magic and the frames:
// bare records, one 16-byte header each.
func preMagicLog() []byte {
	var b []byte
	for i, v := range []string{"good", "next"} {
		b = binary.LittleEndian.AppendUint32(b, 1)
		b = binary.LittleEndian.AppendUint32(b, 1)
		b = binary.LittleEndian.AppendUint32(b, uint32(7+i))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(v)))
		b = append(append(b, 'k'), v...)
	}
	return b
}

// wantRefused opens path, requires err target and the file untouched.
func wantRefused(t *testing.T, path string, target error) {
	t.Helper()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if w, err := OpenFileWAL(path); !errors.Is(err, target) {
		if err == nil {
			w.Close()
		}
		t.Fatalf("OpenFileWAL = %v, want %v", err, target)
	}
	after, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(before, after) {
		t.Fatalf("a refused log changed: %d -> %d bytes (err=%v)", len(before), len(after), err)
	}
}

// TestFileWALRefusesOtherFormats: a log in the format before the magic, or of
// another version, is refused and left as it is — never read as empty.
// An empty file and a file holding only a prefix of the magic (a crash
// at creation) open as an empty log.
func TestFileWALRefusesOtherFormats(t *testing.T) {
	dir := t.TempDir()
	other := append(append([]byte{}, walMagic[:7]...), walMagic[7]+1)
	for name, data := range map[string][]byte{"pre-magic": preMagicLog(), "version": other} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		wantRefused(t, path, ErrWALFormat)
	}
	rec := Record{Key: "k", Index: 1, Val: proto.Value("v")}
	for name, data := range map[string][]byte{
		"empty":        nil,
		"magic-prefix": walMagic[:3],
		"magic-zeros":  append(append([]byte{}, walMagic[:5]...), make([]byte, 4096)...),
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		w := reopen(t, path)
		if got := collect(t, w); len(got) != 0 {
			t.Fatalf("%s: replayed %v from a log that never synced", name, got)
		}
		w.Append(rec)
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		w.Close()
		w = reopen(t, path)
		wantRecords(t, collect(t, w), []Record{rec})
		w.Close()
	}
}

// TestFileWALRefusesMidLogCorruption: a byte flipped inside frame 2 of 3
// is corruption, not a torn tail — frame 3 was acknowledged after it — so
// the log is refused and left byte for byte as it was. The known limits
// read as a torn tail and are cut: a flip inside the final frame, and a
// flip inside a length field, whose frame no longer points at the next.
func TestFileWALRefusesMidLogCorruption(t *testing.T) {
	frames := [][]Record{
		{{Key: "k", Lane: 0, Index: 1, Val: proto.Value("one")}},
		{{Key: "k", Lane: 0, Index: 2, Val: proto.Value("two")}, {Key: "k", Lane: 1, Index: 1, Val: proto.Value("uno")}},
		{{Key: "k", Lane: 0, Index: 3, Val: proto.Value("three")}},
	}
	frameLen := func(fr []Record) int64 {
		n := int64(walFrameHdr)
		for _, r := range fr {
			n += int64(walRecordHdr + len(r.Key) + len(r.Val))
		}
		return n
	}
	at2 := int64(len(walMagic)) + frameLen(frames[0])
	at3 := at2 + frameLen(frames[1])
	for _, tc := range []struct {
		name string
		at   int64 // the flipped byte
		want int   // frames replayed; -1: refused
	}{
		{"frame2-body", at2 + walFrameHdr + 20, -1},
		{"frame2-checksum", at2 + 5, -1},
		{"frame3-body", at3 + walFrameHdr + 3, 2},
		{"frame2-length", at2 + 1, 1},
	} {
		path := filepath.Join(t.TempDir(), "wal")
		syncFrames(t, path, frames...).Close()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[tc.at] ^= 0x10
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if tc.want < 0 {
			wantRefused(t, path, ErrWALCorrupt)
			continue
		}
		w := reopen(t, path)
		var want []Record
		for _, fr := range frames[:tc.want] {
			want = append(want, fr...)
		}
		wantRecords(t, collect(t, w), want)
		w.Close()
	}
}

// FuzzOpenFileWAL: whatever the file holds, OpenFileWAL refuses it as
// another format or as corrupt, leaving it untouched, or opens it at the
// end of a prefix of whole frames and replays exactly their records.
func FuzzOpenFileWAL(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed")
	w, err := OpenFileWAL(path)
	if err != nil {
		f.Fatal(err)
	}
	for i, vals := range [][]string{{"a"}, {"bb", ""}, {"ccc"}} {
		for j, v := range vals {
			w.Append(Record{Key: "k", Lane: j, Index: i + 1, Val: proto.Value(v)})
		}
		if err := w.Sync(); err != nil {
			f.Fatal(err)
		}
	}
	end := w.Len()
	w.Close()
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid[:end+16]) // the three frames and some of the zeros after them
	for _, cut := range []int64{0, 3, 8, 12, 20, end - 9, end - 1} {
		f.Add(valid[:cut])
	}
	f.Add(preMagicLog())

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := OpenFileWAL(path)
		if err != nil {
			if !errors.Is(err, ErrWALFormat) && !errors.Is(err, ErrWALCorrupt) {
				t.Fatalf("OpenFileWAL: %v", err)
			}
			if after, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(after, data) {
				t.Fatalf("refused (%v) but the file changed", err)
			}
			return
		}
		defer w.Close()
		got := collect(t, w)
		if !bytes.HasPrefix(data, walMagic[:]) {
			if w.Len() != 0 || len(got) != 0 {
				t.Fatalf("a log without the magic opened at %d bytes with %d records", w.Len(), len(got))
			}
			return
		}
		// Walk the whole frames the way the format defines them.
		off, want := int64(len(walMagic)), []Record(nil)
		for off+walFrameHdr <= int64(len(data)) {
			n := int64(binary.LittleEndian.Uint32(data[off:]))
			if n == 0 || off+walFrameHdr+n > int64(len(data)) {
				break
			}
			body := data[off+walFrameHdr : off+walFrameHdr+n]
			if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[off+4:]) {
				break
			}
			if err := decodeRecords(body, func(r Record) error { want = append(want, r); return nil }); err != nil {
				t.Fatalf("opened a log whose frame at %d holds no whole records", off)
			}
			off += walFrameHdr + n
		}
		if w.Len() != off {
			t.Fatalf("opened at %d bytes, want the end of the whole frames at %d", w.Len(), off)
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, data[:off]) {
			t.Fatalf("the opened file is not the prefix of whole frames (err=%v)", err)
		}
		wantRecords(t, got, want)
	})
}
