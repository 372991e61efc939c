package twobitreg_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"twobitreg"
)

func TestRegisterQuickstart(t *testing.T) {
	t.Parallel()
	reg, err := twobitreg.Start(5)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Stop()
	if err := reg.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	for pid := 0; pid < reg.N(); pid++ {
		got, err := reg.Read(pid)
		if err != nil {
			t.Fatalf("read via p%d: %v", pid, err)
		}
		if string(got) != "hello" {
			t.Fatalf("read via p%d = %q, want hello", pid, got)
		}
	}
}

func TestRegisterInitialValue(t *testing.T) {
	t.Parallel()
	reg, err := twobitreg.Start(3, twobitreg.WithInitial([]byte("v0")))
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Stop()
	got, err := reg.Read(2)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v0" {
		t.Fatalf("read = %q, want v0", got)
	}
}

func TestRegisterCrashTolerance(t *testing.T) {
	t.Parallel()
	reg, err := twobitreg.Start(5, twobitreg.WithJitter(100*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Stop()
	if err := reg.Write([]byte("a")); err != nil {
		t.Fatal(err)
	}
	reg.Crash(3)
	reg.Crash(4)
	if err := reg.Write([]byte("b")); err != nil {
		t.Fatalf("write after minority crash: %v", err)
	}
	got, err := reg.Read(1)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "b" {
		t.Fatalf("read = %q, want b", got)
	}
	if _, err := reg.Read(4); !errors.Is(err, twobitreg.ErrCrashed) {
		t.Fatalf("read on crashed process: %v, want ErrCrashed", err)
	}
}

func TestRegisterConcurrentClients(t *testing.T) {
	t.Parallel()
	reg, err := twobitreg.Start(5, twobitreg.WithJitter(200*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Stop()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 20; k++ {
			if err := reg.Write([]byte(fmt.Sprintf("v%d", k))); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
	}()
	for pid := 1; pid < 5; pid++ {
		pid := pid
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 10; k++ {
				if _, err := reg.Read(pid); err != nil {
					t.Errorf("read p%d: %v", pid, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	s := reg.Stats()
	if s.MaxCtrlBits != 2 {
		t.Fatalf("max control bits on the wire = %d, want 2", s.MaxCtrlBits)
	}
	if s.DistinctMessageTypes > 4 {
		t.Fatalf("distinct message types = %d, want <= 4", s.DistinctMessageTypes)
	}
}

func TestRegisterStopUnblocks(t *testing.T) {
	t.Parallel()
	reg, err := twobitreg.Start(3)
	if err != nil {
		t.Fatal(err)
	}
	reg.Crash(1)
	reg.Crash(2) // majority gone: next op cannot terminate
	done := make(chan error, 1)
	go func() { done <- reg.Write([]byte("stuck")) }()
	time.Sleep(20 * time.Millisecond)
	reg.Stop()
	select {
	case err := <-done:
		if !errors.Is(err, twobitreg.ErrStopped) {
			t.Fatalf("unblocked write: %v, want ErrStopped", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Stop did not unblock the write")
	}
}

func TestRegisterRejectsBadN(t *testing.T) {
	t.Parallel()
	if _, err := twobitreg.Start(0); err == nil {
		t.Fatal("Start(0) succeeded")
	}
}

// TestRegisterUnknownProcess: a pid outside 0..N-1 is an error on Read and
// a panic naming the valid range on Crash, never an index-out-of-range.
func TestRegisterUnknownProcess(t *testing.T) {
	t.Parallel()
	reg, err := twobitreg.Start(3)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Stop()
	for _, pid := range []int{-1, 3} {
		if _, err := reg.Read(pid); err == nil {
			t.Fatalf("Read(%d) on a 3-process register succeeded", pid)
		}
	}
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "0..2") {
			t.Fatalf("Crash(3) panicked with %q, want the valid range 0..2", msg)
		}
	}()
	reg.Crash(3)
}
