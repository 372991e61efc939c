package shard_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"twobitreg/internal/regclient"
	"twobitreg/internal/shard"
)

// TestLocalClusterKillRacesReaders kills a process while other goroutines
// read its slot through Node()/Server() and a routing client keeps issuing
// gets: every accessor must see either the live member or nil (run under
// -race), and the client must fail over to the surviving majority — an
// operation may never fail, let alone panic.
func TestLocalClusterKillRacesReaders(t *testing.T) {
	lc, err := shard.StartLocal(1, 3)
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
				if nd := lc.Node(0, 0); nd != nil {
					_ = nd.ID()
				}
				if srv := lc.Server(0, 0); srv != nil {
					_ = srv.ActiveSessions()
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
	if lc.Node(0, 0) != nil || lc.Server(0, 0) != nil {
		t.Error("a killed process still has a node or a server")
	}
}
