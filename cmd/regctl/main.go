// Command regctl drives the sharded keyed register service over the
// versioned binary client protocol (the default since v2), routing each
// key to its shard and failing over across the shard's members.
//
// Usage:
//
//	regctl -cluster "127.0.0.1:7100,127.0.0.1:7101;127.0.0.1:7110,127.0.0.1:7111" put color blue
//	regctl -cluster "..." get color
//	regctl -config cluster.json get color
//	regctl -addr 127.0.0.1:7100 get color        # single node, single shard
//
// -cluster takes the client address table (';'-separated shards of
// ','-separated addresses); -config takes the same JSON file regnode
// serves from (mesh addresses are ignored — clients never dial them).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"twobitreg/internal/regclient"
	"twobitreg/internal/shard"
)

func main() {
	addr := flag.String("addr", "", "single node client address (one-shard shorthand)")
	clusterList := flag.String("cluster", "", "client address table: ';'-separated shards of ','-separated addresses")
	configPath := flag.String("config", "", "JSON cluster config file (shard.ClusterConfig)")
	flag.Parse()

	if err := run(*addr, *clusterList, *configPath, flag.Args()); err != nil {
		var cerr *shard.ConfigError
		if errors.As(err, &cerr) {
			fmt.Fprintf(os.Stderr, "regctl: bad configuration at %s: %s\n", cerr.Field, cerr.Reason)
		} else {
			fmt.Fprintln(os.Stderr, "regctl:", err)
		}
		os.Exit(1)
	}
}

func run(addr, clusterList, configPath string, args []string) error {
	cfg, err := loadConfig(addr, clusterList, configPath)
	if err != nil {
		return err
	}
	if len(args) < 1 {
		return fmt.Errorf("need a command: get <key> | put <key> <value>")
	}
	cl, err := regclient.New(cfg, 0)
	if err != nil {
		return err
	}
	defer cl.Close()
	switch args[0] {
	case "get":
		if len(args) != 2 {
			return fmt.Errorf("usage: get <key>")
		}
		v, err := cl.Get(args[1])
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", v)
		return nil
	case "put":
		if len(args) < 3 {
			return fmt.Errorf("usage: put <key> <value>")
		}
		return cl.Put(args[1], []byte(strings.Join(args[2:], " ")))
	default:
		return fmt.Errorf("unknown command %q (use: get <key> | put <key> <value>)", args[0])
	}
}

// loadConfig resolves exactly one of the three addressing surfaces.
func loadConfig(addr, clusterList, configPath string) (*shard.ClusterConfig, error) {
	set := 0
	for _, s := range []string{addr, clusterList, configPath} {
		if s != "" {
			set++
		}
	}
	if set != 1 {
		return nil, fmt.Errorf("need exactly one of -addr, -cluster, -config")
	}
	switch {
	case configPath != "":
		return shard.LoadFile(configPath)
	case clusterList != "":
		return shard.ParseTopology("", clusterList)
	default:
		return shard.ParseTopology("", addr)
	}
}
