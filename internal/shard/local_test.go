package shard_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"twobitreg/internal/regclient"
	"twobitreg/internal/shard"
	"twobitreg/internal/storage"
)

// TestLocalClusterKillRacesReaders kills a process while other goroutines
// read its slot through Member() and a routing client keeps issuing
// gets: every accessor must see either the live member or nil (run under
// -race), and the client must fail over to the surviving majority — an
// operation may never fail, let alone panic.
func TestLocalClusterKillRacesReaders(t *testing.T) {
	lc, err := shard.StartLocal(1, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	cl, err := regclient.New(lc.Config, 0) // prefers the process about to die
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if m := lc.Member(0, 0); m != nil {
					if nd := m.Node(); nd != nil { // nil once the kill is under way
						_ = nd.ID()
					}
					_ = m.Server().ActiveSessions()
				}
				time.Sleep(20 * time.Microsecond) // poll, but leave the cores to the cluster
			}
		}()
	}
	gets := make(chan error, 1)
	go func() {
		for i := 0; i < 200; i++ {
			if got, err := cl.Get("k"); err != nil || string(got) != "v" {
				gets <- fmt.Errorf("get %d: %q, %v", i, got, err)
				return
			}
		}
		gets <- nil
	}()
	lc.KillProc(0, 0)
	if err := <-gets; err != nil {
		t.Error(err)
	}
	close(stop)
	wg.Wait()
	if lc.Member(0, 0) != nil {
		t.Error("a killed process is still in its slot")
	}
}

// TestLocalClusterReviveRacesReaders restarts a process while other
// goroutines read its slot and a routing client keeps writing and reading:
// ReviveProc is a new member on the same addresses and log and nothing
// more, so everything else — the peers learning of the new incarnation,
// both ends of each link resetting — has to happen by itself, under load.
// Then a second process is killed for good, so every quorum needs the
// revived one: a link left wedged by the restart would hang the cluster
// here. No operation may fail, and none may read anything but the latest
// acknowledged write.
func TestLocalClusterReviveRacesReaders(t *testing.T) {
	logs := []*storage.MemLog{storage.NewMemLog(), storage.NewMemLog(), storage.NewMemLog()}
	lc, err := shard.StartLocal(1, 3, func(_, i int) storage.StableStorage { return logs[i] })
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	cl, err := regclient.New(lc.Config, 0) // prefers the process that restarts
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if m := lc.Member(0, 0); m != nil {
					_ = m.Mesh().Stats()
					if nd := m.Node(); nd != nil { // nil once the kill is under way
						_ = nd.ID()
					}
				}
				time.Sleep(20 * time.Microsecond) // poll, but leave the cores to the cluster
			}
		}()
	}
	// One sequential client: each read must return the write before it.
	load := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				load <- nil
				return
			default:
			}
			want := fmt.Sprintf("v%d", i)
			if err := cl.Put("k", []byte(want)); err != nil {
				load <- fmt.Errorf("put %s: %v", want, err)
				return
			}
			if got, err := cl.Get("k"); err != nil || string(got) != want {
				load <- fmt.Errorf("get after put %s: %q, %v", want, got, err)
				return
			}
		}
	}()

	time.Sleep(20 * time.Millisecond)
	lc.KillProc(0, 0)
	logs[0].DropUnsynced() // the crash: the unsynced tail vanishes
	time.Sleep(20 * time.Millisecond)
	if err := lc.ReviveProc(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := lc.ReviveProc(0, 0); err == nil {
		t.Error("ReviveProc restarted a process that is running")
	}
	time.Sleep(20 * time.Millisecond)
	lc.KillProc(0, 1) // from here on every quorum is the revived process and process 2
	time.Sleep(50 * time.Millisecond)
	close(stop)
	select {
	case err := <-load:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the client is stuck: the restart left a link wedged")
	}
	wg.Wait()
	// And through the revived process itself, not just past it.
	sess, err := regclient.DialNode(lc.Config.Shards[0].Procs[0].Client)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	own := make(chan error, 1)
	go func() {
		if err := sess.Put("k", []byte("last")); err != nil {
			own <- fmt.Errorf("write: %v", err)
			return
		}
		got, err := sess.Get("k")
		if err != nil || string(got) != "last" {
			err = fmt.Errorf("read: %q, %v", got, err)
		}
		own <- err
	}()
	select {
	case err := <-own:
		if err != nil {
			t.Errorf("through the revived process: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the revived process cannot finish an operation of its own")
	}
}
