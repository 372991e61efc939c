package main

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"twobitreg/internal/regclient"
	"twobitreg/internal/shard"
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
		go func() { done <- run(ctx, "", peersFlag, clientsFlag, 0, id) }()
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
		err := run(context.Background(), "", "a:1,b:1,c:1", "d:1,e:1,f:1", tc.shard, tc.id)
		var cerr *shard.ConfigError
		if !errors.As(err, &cerr) || cerr.Field != tc.field {
			t.Errorf("-shard %d -id %d: %v, want a *shard.ConfigError at %q", tc.shard, tc.id, err, tc.field)
		}
	}
}
