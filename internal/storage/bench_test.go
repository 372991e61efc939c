package storage

import (
	"os"
	"path/filepath"
	"testing"

	"twobitreg/internal/proto"
)

// noSync is a file whose Sync does nothing: a FileWAL on it pays encode
// and write without the fsync.
type noSync struct{ *os.File }

func (noSync) Sync() error { return nil }

// TestWALAppendSyncAllocs pins BenchmarkWALWrite's allocs/op column: a
// FileWAL reuses its encode buffer, so Append + Sync allocates nothing, on
// a file with or without the fsync and in memory alike.
func TestWALAppendSyncAllocs(t *testing.T) {
	val := proto.Value("0123456789abcdef")
	rec := Record{Key: "k0001", Lane: 2, Index: 1}
	for _, tc := range []struct {
		name        string
		file, fsync bool
		want        float64
	}{{"file/sync", true, true, 0}, {"file/nosync", true, false, 0}, {"memlog", false, false, 0}} {
		log := NewMemLog()
		if tc.file {
			w, err := OpenFileWAL(filepath.Join(t.TempDir(), "wal"))
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			if !tc.fsync {
				w.f = noSync{w.f.(*os.File)}
			}
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
// is encode+write alone, and memlog is the same log on the explorer's
// in-memory file.
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
		w.f = noSync{w.f.(*os.File)}
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
