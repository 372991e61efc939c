package storage

import (
	"path/filepath"
	"testing"

	"twobitreg/internal/proto"
)

// TestWALAppendSyncAllocs pins BenchmarkWALWrite's allocs/op column: a
// FileWAL reuses its encode buffer, so Append + Sync allocates nothing with
// or without the fsync, and a MemLog allocates once, for the Clone that
// keeps the record.
func TestWALAppendSyncAllocs(t *testing.T) {
	val := proto.Value("0123456789abcdef")
	rec := Record{Key: "k0001", Lane: 2, Index: 1}
	for _, tc := range []struct {
		name        string
		file, fsync bool
		want        float64
	}{{"file/sync", true, true, 0}, {"file/nosync", true, false, 0}, {"memlog", false, false, 1}} {
		var log StableStorage = NewMemLog()
		if tc.file {
			w, err := OpenFileWAL(filepath.Join(t.TempDir(), "wal"))
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			w.noFsync = !tc.fsync
			log = w
		}
		i := 0
		allocs := testing.AllocsPerRun(20, func() {
			i++
			r := rec
			r.Index = i
			r.Val = val
			log.Append(r)
			if err := log.Sync(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != tc.want {
			t.Errorf("%s: Append + Sync allocates %v times, want %v", tc.name, allocs, tc.want)
		}
	}
}

// BenchmarkWALWrite measures the per-write durability cost on the write
// path: one Append + one Sync per operation, the exact shape a durable
// register process pays per protocol step. The three variants isolate
// where the time goes — file/sync is the honest fsync price, file/nosync
// is encode+write alone, and memlog is the explorer's in-memory fake.
// EXPERIMENTS.md E-WAL1 tabulates it; TestWALAppendSyncAllocs pins its
// allocations.
func BenchmarkWALWrite(b *testing.B) {
	val := proto.Value("0123456789abcdef") // 16-byte payload
	rec := Record{Key: "k0001", Lane: 2, Index: 1}

	b.Run("file/sync", func(b *testing.B) {
		w, err := OpenFileWAL(filepath.Join(b.TempDir(), "wal"))
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := rec
			r.Index = i + 1
			r.Val = val
			w.Append(r)
			if err := w.Sync(); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("file/nosync", func(b *testing.B) {
		w, err := OpenFileWAL(filepath.Join(b.TempDir(), "wal"))
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		w.noFsync = true
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := rec
			r.Index = i + 1
			r.Val = val
			w.Append(r)
			if err := w.Sync(); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("memlog", func(b *testing.B) {
		m := NewMemLog()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := rec
			r.Index = i + 1
			r.Val = val
			m.Append(r)
			if err := m.Sync(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
