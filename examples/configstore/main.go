// Config store: the read-dominated application the paper's conclusion
// motivates, served by the sharded keyed register service. A control
// plane (the writer) publishes configuration revisions through the binary
// client protocol; many data-plane workers read them continuously, each
// worker preferring a different member of every shard's quorum group so
// the read load spreads.
package main

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"

	"twobitreg/internal/regclient"
	"twobitreg/internal/shard"
)

func main() {
	lc, err := shard.StartLocal(2, 3, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer lc.Close()

	keys := []string{"routing/table", "limits/qps", "flags/rollout"}

	// Control plane: three revisions per key, through one client.
	control, err := regclient.New(lc.Config, 0)
	if err != nil {
		log.Fatal(err)
	}
	defer control.Close()
	for rev := 1; rev <= 3; rev++ {
		for _, k := range keys {
			if err := control.Put(k, []byte(fmt.Sprintf("%s@rev%d", k, rev))); err != nil {
				log.Fatal(err)
			}
		}
	}

	// Data plane: workers hammer reads, each preferring a different shard
	// member (regclient.New's prefer offset rotates the quorum group).
	var reads atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := regclient.New(lc.Config, w)
			if err != nil {
				log.Printf("client: %v", err)
				return
			}
			defer cl.Close()
			for i := 0; i < 50; i++ {
				k := keys[(w+i)%len(keys)]
				if _, err := cl.Get(k); err != nil {
					log.Printf("read: %v", err)
					return
				}
				reads.Add(1)
			}
		}()
	}
	wg.Wait()

	for _, k := range keys {
		v, err := control.Get(k)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s = %s (shard %d)\n", k, v, lc.Config.ShardOf(k))
	}
	fmt.Printf("\n%d worker reads over connection-multiplexed client sessions\n", reads.Load())
	fmt.Println("across 2 independent quorum groups of 3 processes each.")
}
