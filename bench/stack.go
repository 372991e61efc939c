package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"twobitreg/internal/cluster"
	"twobitreg/internal/proto"
	"twobitreg/internal/regclient"
	"twobitreg/internal/regmap"
	"twobitreg/internal/shard"
	"twobitreg/internal/storage"
	"twobitreg/internal/transport"
	"twobitreg/internal/wire"
)

// stack is one in-process cluster over loopback TCP, assembled from the
// same public constructors cmd/regnode uses: a transport.Mesh, a
// regmap.Node behind a cluster.KeyedNode and a shard.Server per member,
// driven through regclient.Clients. With a tracer every injected seam is
// decorated; without one the stack is the production path untouched.
type stack struct {
	base     time.Time
	tr       *tracer
	members  []*member
	clients  []*regclient.Client
	sendErrs atomic.Int64
}

type member struct {
	mesh *transport.Mesh
	// node is nil once the member is killed: frames addressed to it drop
	// and its handler answers unavailable, as after a real crash.
	node    atomic.Pointer[cluster.KeyedNode]
	srv     *shard.Server
	wal     *storage.FileWAL
	walPath string
}

// newStack assembles and starts the cluster for wl. WAL files, if any, go
// under dir. tr may be nil.
func newStack(wl workload, dir string, base time.Time, tr *tracer) (st *stack, err error) {
	st = &stack{base: base, tr: tr}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	n := wl.N
	writers := make([]int, n)
	addrs := make([]string, n)
	// The meshes bind first; the deliver closures indirect through the node
	// slots, which are filled before any node is driven.
	for i := 0; i < n; i++ {
		writers[i] = i
		m := &member{}
		st.members = append(st.members, m)
		deliver := func(from int, msg proto.Message) {
			if nd := m.node.Load(); nd != nil {
				nd.Deliver(from, msg)
			}
		}
		if tr != nil {
			deliver = tr.wrapDeliver(deliver)
		}
		if m.mesh, err = transport.NewMesh(i, n, "127.0.0.1:0", wire.Codec{}, deliver); err != nil {
			return nil, err
		}
		addrs[i] = m.mesh.Addr()
	}
	for _, m := range st.members {
		if err = m.mesh.SetPeers(addrs); err != nil {
			return nil, err
		}
	}
	cfg := &shard.ClusterConfig{Shards: make([]shard.Shard, 1)}
	for i, m := range st.members {
		var store *regmap.Node
		store, err = regmap.NewNode(i, regmap.Config{N: n, DefaultWriters: writers, Coalesce: true})
		if err != nil {
			return nil, err
		}
		if wl.Durable {
			m.walPath = filepath.Join(dir, fmt.Sprintf("wal-%d.log", i))
			if m.wal, err = storage.OpenFileWAL(m.walPath); err != nil {
				return nil, err
			}
			var log storage.StableStorage = m.wal
			if tr != nil {
				log = tr.wrapStore(i, log)
			}
			store.AttachStorage(log)
		}
		var proc cluster.KeyedProcess = store
		mesh := m.mesh
		send := func(to int, msg proto.Message) {
			// Send reports misuse or a closed mesh, never peer health.
			if mesh.Send(to, msg) != nil {
				st.sendErrs.Add(1)
			}
		}
		if tr != nil {
			proc = tr.wrapProcess(i, store)
			send = tr.wrapSend(i, send)
		}
		m.node.Store(cluster.NewKeyedNode(i, proc, send))

		var ln net.Listener
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, err
		}
		var handler shard.Handler = m.handle
		if tr != nil {
			handler = tr.wrapHandler(i, handler)
		}
		if m.srv, err = shard.Serve(ln, 0, 1, handler); err != nil {
			ln.Close()
			return nil, err
		}
		cfg.Shards[0].Procs = append(cfg.Shards[0].Procs, shard.Proc{Client: m.srv.Addr()})
	}
	for s := 0; s < sessions; s++ {
		var cl *regclient.Client
		if cl, err = regclient.New(cfg, s); err != nil {
			return nil, err
		}
		st.clients = append(st.clients, cl)
	}
	return st, nil
}

// handle is the member's shard.Handler: one KeyedNode.Get/Put, with a dead
// or dying node mapped to unavailable so clients fail over.
func (m *member) handle(op wire.ClientOp, key string, val []byte) ([]byte, error) {
	nd := m.node.Load()
	if nd == nil {
		return nil, shard.ErrUnavailable
	}
	var out []byte
	var err error
	if op == wire.ClientGet {
		out, err = nd.Get(key)
	} else {
		err = nd.Put(key, val)
	}
	if errors.Is(err, cluster.ErrStopped) {
		return nil, shard.ErrUnavailable
	}
	return out, err
}

func (st *stack) now() int64 { return int64(time.Since(st.base)) }

// kill crashes member i: node stopped first (so the server's drain cannot
// wait on a quorum round that will never finish), then the client server
// and the mesh, listener and connections included. Idempotent.
func (st *stack) kill(i int) {
	m := st.members[i]
	if nd := m.node.Swap(nil); nd != nil {
		nd.Stop()
	}
	if m.srv != nil {
		m.srv.Close()
	}
	if m.mesh != nil {
		m.mesh.Close()
	}
}

// close tears the whole stack down and closes the WAL files.
func (st *stack) close() {
	for _, cl := range st.clients {
		cl.Close()
	}
	for i, m := range st.members {
		st.kill(i)
		if m.wal != nil {
			m.wal.Close()
			m.wal = nil
		}
	}
}

// observation is what can be read off a running stack from outside at one
// instant; a measured window is the difference of two.
type observation struct {
	at       int64         // ns since base
	cpu      time.Duration // process user+sys
	mesh     transport.MeshStats
	walBytes int64
	layer    counts
}

func (st *stack) observe() (observation, error) {
	o := observation{at: st.now()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return o, err
	}
	o.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	for _, m := range st.members {
		o.mesh.Add(m.mesh.Stats()) // a closed mesh keeps its counters
		if m.walPath != "" {
			fi, err := os.Stat(m.walPath)
			if err != nil {
				return o, err
			}
			o.walBytes += fi.Size()
		}
	}
	if st.tr != nil {
		o.layer = st.tr.snapshot()
	}
	return o, nil
}
