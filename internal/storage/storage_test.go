package storage

import (
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
	m.DropUnsynced() // crash before the sync point
	wantRecords(t, collect(t, m), []Record{r1})
	if m.SyncedLen() != 1 {
		t.Fatalf("SyncedLen = %d, want 1", m.SyncedLen())
	}
}

func TestMemLogLoseNextSyncs(t *testing.T) {
	m := NewMemLog()
	m.LoseNextSyncs(1)
	m.Append(Record{Lane: 0, Index: 1, Val: proto.Value("lost")})
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, m); len(got) != 0 {
		t.Fatalf("sync-loss fault leaked records: %v", got)
	}
	kept := Record{Lane: 0, Index: 1, Val: proto.Value("kept")}
	m.Append(kept)
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	wantRecords(t, collect(t, m), []Record{kept})
	if m.Syncs() != 2 {
		t.Fatalf("Syncs = %d, want 2", m.Syncs())
	}
}

func TestMemLogAppendClonesValue(t *testing.T) {
	m := NewMemLog()
	v := proto.Value("mutate-me")
	m.Append(Record{Index: 1, Val: v})
	v[0] = 'X'
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	got := collect(t, m)
	if string(got[0].Val) != "mutate-me" {
		t.Fatalf("log aliased caller's value: %q", got[0].Val)
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

func TestFileWALTornTail(t *testing.T) {
	good := Record{Key: "k", Lane: 1, Index: 7, Val: proto.Value("good")}
	torn := Record{Key: "k", Lane: 1, Index: 8, Val: proto.Value("torn-away")}
	tornLen := int64(16 + len(torn.Key) + len(torn.Val))
	// Tear the final record into its payload, then into its header.
	for _, cut := range []int64{5, tornLen - 6} {
		path := filepath.Join(t.TempDir(), "wal")
		w, err := OpenFileWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		w.Append(good)
		w.Append(torn)
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		w.Close()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, fi.Size()-cut); err != nil {
			t.Fatal(err)
		}
		w2, err := OpenFileWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		wantRecords(t, collect(t, w2), []Record{good})
		w2.Close()
	}
}

// TestFileWALAppendAfterTornTail: a record appended after a power-loss tear
// must replay. Reopening cuts the torn frame off, so the next append lands
// right after the last whole record instead of behind bytes Replay stops at.
func TestFileWALAppendAfterTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Key: "k", Lane: 0, Index: 1, Val: proto.Value("one")},
		{Key: "k", Lane: 0, Index: 2, Val: proto.Value("two")},
		{Key: "k", Lane: 0, Index: 3, Val: proto.Value("three")},
	}
	w.Append(recs[0])
	w.Append(recs[1])
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	// The power fails mid-write: part of the next frame reaches the disk.
	w.Append(Record{Key: "k", Lane: 0, Index: 3, Val: proto.Value("lost")})
	if _, err := w.f.Write(w.buf[:len(w.buf)-2]); err != nil {
		t.Fatal(err)
	}
	w.Close()

	w2, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	wantRecords(t, collect(t, w2), recs[:2])
	w2.Append(recs[2])
	if err := w2.Sync(); err != nil {
		t.Fatal(err)
	}
	w2.Close()

	w3, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	wantRecords(t, collect(t, w3), recs)
}

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
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
		t.Fatalf("empty Sync wrote bytes: size=%d err=%v", fi.Size(), err)
	}
}
