package cluster_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"twobitreg/internal/check"
	"twobitreg/internal/cluster"
	"twobitreg/internal/core"
	"twobitreg/internal/proto"
)

// TestClusterTwoBitMWMRStressWithCrash races three concurrent writers of the
// multi-writer two-bit register on real goroutines with delivery jitter,
// crashes one writer mid-workload, and judges the recorded history with the
// Gibbons-Korach cluster checker. Run under -race in CI, this is the
// real-scheduler counterpart of the simulator matrix in internal/explore.
func TestClusterTwoBitMWMRStressWithCrash(t *testing.T) {
	t.Parallel()
	const (
		n           = 5
		perWriter   = 6
		perReader   = 8
		crashVictim = 2
	)
	r := newRig(t, core.MWMRAlgorithm(), n, 200*time.Microsecond, 0, 1, 2)

	var wg sync.WaitGroup
	for _, w := range r.c.Writers() {
		h := r.c.Handle(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perWriter; k++ {
				if err := h.Write(val(fmt.Sprintf("w%d-%d", h.PID(), k))); err != nil {
					if errors.Is(err, cluster.ErrCrashed) && h.PID() == crashVictim {
						return // the victim's stream legitimately ends here
					}
					t.Errorf("writer %d: %v", h.PID(), err)
					return
				}
				if _, err := h.Read(); err != nil && !(errors.Is(err, cluster.ErrCrashed) && h.PID() == crashVictim) {
					t.Errorf("writer %d read: %v", h.PID(), err)
					return
				}
			}
		}()
	}
	for pid := 3; pid < n; pid++ {
		h := r.c.Handle(pid)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perReader; k++ {
				if _, err := h.Read(); err != nil {
					t.Errorf("reader %d: %v", h.PID(), err)
					return
				}
			}
		}()
	}
	// Crash one writer while the workload is in full flight; a minority
	// crash must leave every other client live.
	time.Sleep(2 * time.Millisecond)
	r.c.Crash(crashVictim)
	wg.Wait()

	h := r.rec.History()
	if err := check.CheckMWMR(h); err != nil {
		t.Fatalf("multi-writer two-bit cluster history is not atomic: %v", err)
	}
	writers := map[int]bool{}
	for _, op := range h.Ops {
		if op.Kind == proto.OpWrite {
			writers[op.Proc] = true
		}
	}
	if len(writers) < 2 {
		t.Fatalf("only %d writer processes issued writes; the stress is multi-writer in name only", len(writers))
	}
}

// TestClusterWriterSetEnforced pins the writer-set surface: writes outside
// the set fail with the typed sentinel, configs with bad sets are rejected
// with *proto.WriterSetError, and the handles report the set.
func TestClusterWriterSetEnforced(t *testing.T) {
	t.Parallel()
	r := newRig(t, core.MWMRAlgorithm(), 5, 0, 0, 2)
	if err := r.c.Write(1, val("x")); !errors.Is(err, cluster.ErrNotWriter) {
		t.Fatalf("write through non-writer 1 = %v, want ErrNotWriter", err)
	}
	if got := r.c.Writers(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("Writers() = %v, want [0 2]", got)
	}
	if !r.c.IsWriter(2) || r.c.IsWriter(1) {
		t.Fatal("IsWriter misreports the set")
	}
	if h := r.c.Handle(2); h.PID() != 2 {
		t.Fatalf("Handle(2).PID() = %d", h.PID())
	}
	if err := r.c.Write(0, val("ok")); err != nil {
		t.Fatalf("write through writer 0: %v", err)
	}

	// Invalid sets are rejected at construction with the typed error.
	for _, ws := range [][]int{{5}, {-1}, {0, 0}} {
		_, err := cluster.New(cluster.Config{N: 5, Writers: ws, Alg: core.MWMRAlgorithm()})
		var wse *proto.WriterSetError
		if !errors.As(err, &wse) {
			t.Fatalf("Config{Writers: %v} error = %v, want *proto.WriterSetError", ws, err)
		}
	}
}
