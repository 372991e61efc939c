package shard

// local.go boots a whole sharded cluster inside one process over loopback
// TCP — a grid of Members, the real production stack minus the process
// boundary. Examples and tests use it to stand up a cluster in a few
// lines; cmd/regnode runs the same Member one process at a time.

import (
	"fmt"
	"sync/atomic"

	"twobitreg/internal/cluster"
)

// LocalCluster is an in-process sharded cluster on loopback TCP.
type LocalCluster struct {
	// Config is the cluster's client-facing topology (real bound
	// addresses) — hand it to a regclient.Client to talk to the cluster.
	Config *ClusterConfig

	// One atomic slot per process: KillProc nils it while readers may be
	// looking; a nil slot is a crashed process.
	members [][]atomic.Pointer[Member]
}

// StartLocal boots shards×procsPerShard processes: per shard an
// independent quorum group (every member may write every key of the
// shard), each member with a mesh peer link and a client-protocol server
// on ephemeral loopback ports. Callers must Close.
func StartLocal(shards, procsPerShard int) (*LocalCluster, error) {
	if shards < 1 || shards > MaxShards {
		return nil, &ConfigError{Field: "shards", Reason: fmt.Sprintf("need 1..%d, got %d", MaxShards, shards)}
	}
	if procsPerShard < 1 || procsPerShard > 255 {
		return nil, &ConfigError{Field: "procs", Reason: fmt.Sprintf("need 1..255 per shard, got %d", procsPerShard)}
	}
	specs := make([][]MemberSpec, shards)
	for s := range specs {
		for i := 0; i < procsPerShard; i++ {
			specs[s] = append(specs[s], MemberSpec{
				Shard: s, Shards: shards, ID: i, N: procsPerShard,
				MeshAddr: "127.0.0.1:0", ClientAddr: "127.0.0.1:0", Coalesce: true,
			})
		}
	}
	grid, err := StartMembers(specs)
	if err != nil {
		return nil, err
	}
	lc := &LocalCluster{
		Config:  &ClusterConfig{Shards: make([]Shard, shards)},
		members: make([][]atomic.Pointer[Member], shards),
	}
	for s, row := range grid {
		lc.members[s] = make([]atomic.Pointer[Member], len(row))
		for i, m := range row {
			lc.members[s][i].Store(m)
			lc.Config.Shards[s].Procs = append(lc.Config.Shards[s].Procs,
				Proc{Mesh: m.MeshAddr(), Client: m.ClientAddr()})
		}
	}
	return lc, nil
}

// Node returns shard s's local process i (tests drive nodes directly),
// nil if killed.
func (lc *LocalCluster) Node(s, i int) *cluster.KeyedNode {
	if m := lc.members[s][i].Load(); m != nil {
		return m.Node()
	}
	return nil
}

// Server returns shard s's local process i's client server, nil if killed.
func (lc *LocalCluster) Server(s, i int) *Server {
	if m := lc.members[s][i].Load(); m != nil {
		return m.Server()
	}
	return nil
}

// KillProc crashes shard s's local process i (Member.Close). Peers keep
// retrying its mesh address; clients dialing its client port get
// connection refused and fail over.
func (lc *LocalCluster) KillProc(s, i int) {
	if m := lc.members[s][i].Swap(nil); m != nil {
		m.Close()
	}
}

// Close tears the whole cluster down.
func (lc *LocalCluster) Close() {
	for s := range lc.members {
		for i := range lc.members[s] {
			lc.KillProc(s, i)
		}
	}
}
