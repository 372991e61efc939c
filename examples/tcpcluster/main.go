// TCP cluster: a 2-shard × 3-process keyed register service over loopback
// TCP, driven through the versioned binary client protocol — the full
// production stack of cmd/regnode v2 inside one program (per-shard quorum
// groups, hash placement, connection-multiplexed client sessions). Run
// regnode/regctl for the multi-process version.
package main

import (
	"fmt"
	"log"

	"twobitreg/internal/regclient"
	"twobitreg/internal/shard"
)

func main() {
	lc, err := shard.StartLocal(2, 3, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer lc.Close()

	fmt.Println("2-shard × 3-process keyed register service over loopback TCP:")
	for s, sh := range lc.Config.Shards {
		for p, proc := range sh.Procs {
			fmt.Printf("  shard %d process %d: mesh %s, clients %s\n", s, p, proc.Mesh, proc.Client)
		}
	}

	cl, err := regclient.New(lc.Config, 0)
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	keys := []string{"alpha", "beta", "gamma", "delta"}
	fmt.Println("\nkeyed writes through the binary client protocol:")
	for _, k := range keys {
		if err := cl.Put(k, []byte("value of "+k)); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  put %-5s -> shard %d\n", k, lc.Config.ShardOf(k))
	}

	// One process per shard dies; the client fails over to the surviving
	// majority of each quorum group.
	lc.KillProc(0, 0)
	lc.KillProc(1, 2)
	fmt.Println("\nkilled shard 0 process 0 and shard 1 process 2; reading through survivors:")
	for _, k := range keys {
		v, err := cl.Get(k)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  get %-5s = %s (shard %d)\n", k, v, lc.Config.ShardOf(k))
	}
	fmt.Println("\neach shard is an independent quorum group: capacity grows with machines.")
}
