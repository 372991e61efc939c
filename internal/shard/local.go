package shard

// local.go boots a whole sharded cluster inside one process over loopback
// TCP — a grid of Members, the real production stack minus the process
// boundary. Examples and tests stand up a cluster on it, and crash and
// restart its processes; cmd/regnode runs the same Member one process at a
// time.

import (
	"errors"
	"fmt"
	"sync/atomic"
	"syscall"
	"time"

	"twobitreg/internal/storage"
)

// LocalCluster is an in-process sharded cluster on loopback TCP.
type LocalCluster struct {
	// Config is the cluster's topology (real bound addresses, which a
	// restarted process rebinds) — hand it to a regclient.Client to talk
	// to the cluster.
	Config *ClusterConfig

	// One atomic slot per process: KillProc nils it while readers may be
	// looking; a nil slot is a crashed process.
	members [][]atomic.Pointer[Member]
	logs    func(shard, proc int) storage.StableStorage
}

// StartLocal boots shards×procsPerShard processes: per shard an
// independent quorum group (every member may write every key of the
// shard), each member with a mesh peer link and a client-protocol server
// on ephemeral loopback ports. logs, if non-nil, names each process's
// stable storage, the same one every time it is asked, or nil for a
// volatile process; a nil logs runs the whole cluster volatile. A
// restarted process comes back from its log as it stands, so a caller
// that models the crash reopens it (storage.FileWAL.Reopen: the unsynced
// frame is lost) between KillProc and ReviveProc. Callers must Close.
func StartLocal(shards, procsPerShard int, logs func(shard, proc int) storage.StableStorage) (*LocalCluster, error) {
	if shards < 1 || shards > MaxShards {
		return nil, &ConfigError{Field: "shards", Reason: fmt.Sprintf("need 1..%d, got %d", MaxShards, shards)}
	}
	if procsPerShard < 1 || procsPerShard > 255 {
		return nil, &ConfigError{Field: "procs", Reason: fmt.Sprintf("need 1..255 per shard, got %d", procsPerShard)}
	}
	lc := &LocalCluster{
		Config:  &ClusterConfig{Shards: make([]Shard, shards)},
		members: make([][]atomic.Pointer[Member], shards),
		logs:    logs,
	}
	specs := make([][]MemberSpec, shards)
	for s := range specs {
		lc.Config.Shards[s].Procs = make([]Proc, procsPerShard)
		for i := range lc.Config.Shards[s].Procs {
			lc.Config.Shards[s].Procs[i] = Proc{Mesh: "127.0.0.1:0", Client: "127.0.0.1:0"}
			spec, _ := lc.spec(s, i)
			specs[s] = append(specs[s], spec)
		}
	}
	grid, err := StartMembers(specs)
	if err != nil {
		return nil, err
	}
	for s, row := range grid {
		lc.members[s] = make([]atomic.Pointer[Member], len(row))
		for i, m := range row {
			lc.members[s][i].Store(m)
			lc.Config.Shards[s].Procs[i] = Proc{Mesh: m.MeshAddr(), Client: m.ClientAddr()}
		}
	}
	return lc, nil
}

// spec is shard s's process i as the config has it, on its own storage,
// and its shard's mesh address table.
func (lc *LocalCluster) spec(s, i int) (MemberSpec, []string) {
	spec, peers, _ := lc.Config.MemberSpec(s, i) // s and i are in range
	if lc.logs != nil {
		spec.Storage = lc.logs(s, i)
	}
	return spec, peers
}

// Member returns shard s's local process i (tests drive its node and mesh
// directly), nil if killed.
func (lc *LocalCluster) Member(s, i int) *Member { return lc.members[s][i].Load() }

// KillProc crashes shard s's local process i (Member.Close). Peers keep
// retrying its mesh address; clients dialing its client port get
// connection refused and fail over. Its storage is the caller's to crash.
func (lc *LocalCluster) KillProc(s, i int) {
	if m := lc.members[s][i].Swap(nil); m != nil {
		m.Close()
	}
}

// ReviveProc restarts shard s's killed process i: a new member on the same
// addresses and the same storage, and nothing else — the mesh handshake
// tells the peers. The cluster must have been started with storage.
func (lc *LocalCluster) ReviveProc(s, i int) error {
	if lc.logs == nil {
		return errors.New("shard: ReviveProc on a cluster started without storage")
	}
	if lc.Member(s, i) != nil {
		return fmt.Errorf("shard %d process %d is running", s, i)
	}
	spec, peers := lc.spec(s, i)
	for try := 0; ; try++ {
		m, err := StartMember(spec, peers)
		if err == nil {
			lc.members[s][i].Store(m)
			return nil
		}
		// Only a port briefly taken (the source port of somebody's dial,
		// say) is worth waiting for.
		if !errors.Is(err, syscall.EADDRINUSE) || try >= 200 {
			return fmt.Errorf("restart shard %d process %d: %w", s, i, err)
		}
		time.Sleep(5 * time.Millisecond)
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
