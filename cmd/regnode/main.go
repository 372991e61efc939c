// Command regnode runs one process of the sharded keyed register service:
// one member of one shard's quorum group, serving the versioned binary
// keyed client protocol (internal/wire, v2) on its client port and the
// two-bit register mesh protocol toward its shard peers. Start every
// process of the topology (in any order — peers retry dialing), then
// drive keyed reads and writes with regctl.
//
// The topology comes from one validated shard.ClusterConfig, given either
// as a JSON file:
//
//	regnode -config cluster.json -shard 0 -id 1
//
// with cluster.json like
//
//	{"shards": [
//	  {"procs": [{"mesh": "127.0.0.1:7000", "client": "127.0.0.1:7100"},
//	             {"mesh": "127.0.0.1:7001", "client": "127.0.0.1:7101"},
//	             {"mesh": "127.0.0.1:7002", "client": "127.0.0.1:7102"}]},
//	  {"procs": [{"mesh": "127.0.0.1:7010", "client": "127.0.0.1:7110"},
//	             {"mesh": "127.0.0.1:7011", "client": "127.0.0.1:7111"},
//	             {"mesh": "127.0.0.1:7012", "client": "127.0.0.1:7112"}]}]}
//
// or as flag tables (semicolon-separated shards of comma-separated
// addresses, mesh and client tables with identical shapes):
//
//	regnode -peers "127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002;127.0.0.1:7010,127.0.0.1:7011,127.0.0.1:7012" \
//	        -clients "127.0.0.1:7100,127.0.0.1:7101,127.0.0.1:7102;127.0.0.1:7110,127.0.0.1:7111,127.0.0.1:7112" \
//	        -shard 0 -id 1
//
// Each shard is an independent quorum group over the coalescing keyed
// store; every member of a shard may write every key the shard owns
// (last-write-wins multi-writer registers). A key is placed on exactly
// one shard by hash (shard.ShardOfKey); requests for foreign keys answer
// StatusWrongShard.
//
// With -data <dir> the process logs to a write-ahead log under dir, and
// the same command line again — after a clean stop or a kill -9 — recovers
// from it and rejoins by itself: the mesh handshake shows the peers a new
// incarnation and both ends of every link reset. Members with and without
// -data may share a cluster: a volatile member resets its links to a
// restarted peer like any other. Only a member without -data must not be
// restarted into a running cluster, since it would come back empty.
//
// The log is dir/shard<s>-proc<i>.wal: an 8-byte magic ending in the
// format version, then one checksummed frame per sync, then zeros — the
// file grows a chunk at a time, so its size runs ahead of the log. A kill
// mid-sync leaves a torn final frame, which is dropped whole at the next
// start, with nothing of it acknowledged. A log of any other format —
// one written before the magic existed included — is refused, and so is
// one damaged before its last frame: regnode exits 1 naming the file.
// There is no migration.
//
// SIGINT or SIGTERM shuts the process down in order (shard.Member.Close):
// the node stops, so requests in flight end as unavailable and clients
// fail over; the client server closes once those requests have returned;
// the mesh closes last.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"twobitreg/internal/shard"
	"twobitreg/internal/storage"
)

func main() {
	configPath := flag.String("config", "", "JSON cluster config file (shard.ClusterConfig)")
	peers := flag.String("peers", "", "mesh address table: ';'-separated shards of ','-separated addresses")
	clients := flag.String("clients", "", "client address table, same shape as -peers")
	shardIdx := flag.Int("shard", 0, "this process's shard index")
	id := flag.Int("id", 0, "this process's index within its shard")
	dataDir := flag.String("data", "", "directory for this process's write-ahead log, refused if in another format (empty: volatile, not restartable)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *configPath, *peers, *clients, *shardIdx, *id, *dataDir); err != nil {
		var cerr *shard.ConfigError
		if errors.As(err, &cerr) {
			fmt.Fprintf(os.Stderr, "regnode: bad configuration at %s: %s\n", cerr.Field, cerr.Reason)
		} else {
			fmt.Fprintln(os.Stderr, "regnode:", err)
		}
		os.Exit(1)
	}
}

// run serves one shard member until ctx is cancelled. dataDir, if set,
// holds its write-ahead log (a file per slot: processes may share it).
func run(ctx context.Context, configPath, peers, clients string, shardIdx, id int, dataDir string) error {
	cfg, err := loadConfig(configPath, peers, clients)
	if err != nil {
		return err
	}
	spec, meshAddrs, err := cfg.MemberSpec(shardIdx, id)
	if err != nil {
		return err
	}
	durability := "volatile"
	if dataDir != "" {
		if err := os.MkdirAll(dataDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(dataDir, fmt.Sprintf("shard%d-proc%d.wal", shardIdx, id))
		wal, err := storage.OpenFileWAL(path)
		if err != nil {
			return err
		}
		// After the member: its last burst syncs before the file goes.
		defer wal.Close()
		spec.Storage = wal
		durability = "log " + path
	}
	m, err := shard.StartMember(spec, meshAddrs)
	if err != nil {
		return err
	}
	defer m.Close()
	log.Printf("shard %d/%d process %d/%d up: mesh %s, clients %s, %s",
		spec.Shard, spec.Shards, spec.ID, spec.N, m.MeshAddr(), m.ClientAddr(), durability)
	<-ctx.Done()
	return nil
}

// loadConfig resolves the config surface: a JSON file, or the flag tables.
func loadConfig(configPath, peers, clients string) (*shard.ClusterConfig, error) {
	if configPath != "" {
		if peers != "" || clients != "" {
			return nil, fmt.Errorf("-config excludes -peers/-clients")
		}
		return shard.LoadFile(configPath)
	}
	if peers == "" || clients == "" {
		return nil, fmt.Errorf("need -config, or both -peers and -clients")
	}
	return shard.ParseTopology(peers, clients)
}
