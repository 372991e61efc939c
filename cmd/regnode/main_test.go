package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"twobitreg/internal/regclient"
	"twobitreg/internal/shard"
	"twobitreg/internal/storage"
)

// freeAddrs reserves n loopback addresses by binding and releasing them.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

// TestRunServesAndShutsDownCleanly boots a 1-shard x 3 topology in-process
// through run, drives it over the client protocol, and cancels: every run
// must return nil having released both of its ports.
func TestRunServesAndShutsDownCleanly(t *testing.T) {
	mesh, clients := freeAddrs(t, 3), freeAddrs(t, 3)
	peersFlag, clientsFlag := strings.Join(mesh, ","), strings.Join(clients, ",")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 3)
	for id := 0; id < 3; id++ {
		id := id
		go func() { done <- run(ctx, "", peersFlag, clientsFlag, 0, id, "") }()
	}

	cfg, err := shard.ParseTopology("", clientsFlag)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := regclient.New(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// The members come up concurrently with the first request: the routing
	// client fails over past ports that are not listening yet, so only
	// "nobody is up" needs a retry.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err = cl.Put("color", []byte("blue")); err == nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	if got, err := cl.Get("color"); err != nil || string(got) != "blue" {
		t.Fatalf("get = %q, %v; want blue", got, err)
	}

	cancel()
	for i := 0; i < 3; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("run returned %v after cancel, want nil", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("run did not return after cancel")
		}
	}
	for _, addr := range append(mesh, clients...) {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Errorf("port not released after shutdown: %v", err)
			continue
		}
		ln.Close()
	}
}

// TestRunRejectsOutOfRangeSlot pins the error type of a bad -shard / -id:
// a *shard.ConfigError naming the flag, like every other config mistake.
func TestRunRejectsOutOfRangeSlot(t *testing.T) {
	for _, tc := range []struct {
		shard, id int
		field     string
	}{{2, 0, "shard"}, {-1, 0, "shard"}, {0, 3, "id"}, {0, -1, "id"}} {
		err := run(context.Background(), "", "a:1,b:1,c:1", "d:1,e:1,f:1", tc.shard, tc.id, "")
		var cerr *shard.ConfigError
		if !errors.As(err, &cerr) || cerr.Field != tc.field {
			t.Errorf("-shard %d -id %d: %v, want a *shard.ConfigError at %q", tc.shard, tc.id, err, tc.field)
		}
	}
}

// TestRunRefusesForeignLog: a -data directory whose log is in another
// format — here one record of the format before the WAL had a magic — is
// refused naming the file, never served as an empty register.
func TestRunRefusesForeignLog(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shard0-proc1.wal")
	old := []byte{1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 'k', 'v', '1'}
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(context.Background(), "", "a:1,b:1,c:1", "d:1,e:1,f:1", 0, 1, dir)
	if !errors.Is(err, storage.ErrWALFormat) || !strings.Contains(err.Error(), path) {
		t.Fatalf("run with a foreign log: %v, want storage.ErrWALFormat naming %s", err, path)
	}
}

// TestRunRestartsFromData is the operator's restart: three processes run
// with -data, one stops, the survivors take a write, and the same command
// line starts it again. Nothing else is done for it, and every
// acknowledged value must read back through its own client port.
func TestRunRestartsFromData(t *testing.T) {
	mesh, clients := freeAddrs(t, 3), freeAddrs(t, 3)
	peersFlag, clientsFlag := strings.Join(mesh, ","), strings.Join(clients, ",")
	dir := t.TempDir()

	type proc struct {
		cancel context.CancelFunc
		done   chan error
	}
	start := func(id int) proc {
		ctx, cancel := context.WithCancel(context.Background())
		p := proc{cancel: cancel, done: make(chan error, 1)}
		go func() { p.done <- run(ctx, "", peersFlag, clientsFlag, 0, id, dir) }()
		return p
	}
	stop := func(p proc) {
		t.Helper()
		p.cancel()
		select {
		case err := <-p.done:
			if err != nil {
				t.Errorf("run returned %v after cancel, want nil", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("run did not return after cancel")
		}
	}
	procs := []proc{start(0), start(1), start(2)}
	defer func() {
		for _, p := range procs {
			stop(p)
		}
	}()

	cfg, err := shard.ParseTopology("", clientsFlag)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := regclient.New(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	put := func(key, val string) {
		t.Helper()
		// Only "nobody is up yet" needs a retry; see the test above.
		deadline := time.Now().Add(10 * time.Second)
		for {
			err := cl.Put(key, []byte(val))
			if err == nil {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("put %s: %v", key, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	put("before", "1")
	stop(procs[2])
	put("during", "2")
	put("before", "3")
	procs[2] = start(2)

	var sess *regclient.Session
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if sess, err = regclient.DialNode(clients[2]); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the restarted process never opened its client port: %v", err)
		}
	}
	defer sess.Close()
	read := make(chan error, 1)
	go func() {
		for key, want := range map[string]string{"before": "3", "during": "2"} {
			if got, err := sess.Get(key); err != nil || string(got) != want {
				read <- fmt.Errorf("get %s through the restarted process: %q, %v; want %s", key, got, err, want)
				return
			}
		}
		read <- sess.Put("after", []byte("4"))
	}()
	select {
	case err := <-read:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the restarted process cannot finish an operation")
	}
	if got, err := cl.Get("after"); err != nil || string(got) != "4" {
		t.Fatalf("a write through the restarted process reads back %q, %v", got, err)
	}
}
