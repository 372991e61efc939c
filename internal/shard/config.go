// Package shard is the topology layer of the sharded keyed service: the
// validated cluster configuration (which shards exist, which processes
// form each shard's quorum group, where they listen), hash placement of
// keys onto shards, and the client-protocol session server that a shard
// member mounts on its client port.
//
// A cluster is a list of shards; each shard is an INDEPENDENT quorum group
// running the coalescing keyed store (internal/regmap over the lane
// engine) among its own processes only. A key lives on exactly one shard —
// FNV-1a hash placement, ShardOfKey — so capacity grows with machines:
// adding a shard adds a disjoint quorum group serving a disjoint slice of
// the key space, instead of adding n more copies of every key. Per-shard
// membership means a process id is local to its shard; cross-shard
// processes never exchange protocol messages.
//
// The configuration surface is one type, shard.ClusterConfig, shared by
// every consumer — cmd/regnode (JSON file or flags), LocalCluster (built
// on ephemeral ports), internal/regclient (routing) — and validated in one
// place, gvisor-style: a declarative pass over every field that reports
// the first problem as a typed *ConfigError naming the offending field
// path ("shards[1].procs[2].mesh"), so flag and file layers render
// actionable messages without string-matching.
package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// MaxShards bounds the cluster size descriptors; placement math and the
// wire protocol do not care, this only keeps configuration mistakes (a
// mangled flag producing thousands of shards) loud.
const MaxShards = 4096

// ClusterConfig describes a whole sharded cluster: every shard, every
// member process of each shard, and where each listens. It is the single
// configuration surface of the keyed service — regnode loads one (JSON
// file or flags), LocalCluster builds one, regclient routes by one.
type ClusterConfig struct {
	Shards []Shard `json:"shards"`
}

// Shard is one independent quorum group. Its processes are indexed by
// position: Procs[i] is the shard-local process i, and majorities are
// computed over len(Procs).
type Shard struct {
	Procs []Proc `json:"procs"`
}

// Proc is one process of one shard.
type Proc struct {
	// Mesh is the peer (quorum-group) listen address. Client-only
	// consumers (regctl, regclient) may leave it empty.
	Mesh string `json:"mesh,omitempty"`
	// Client is the client-protocol listen address.
	Client string `json:"client"`
}

// ConfigError reports an invalid ClusterConfig field by path,
// errors.As-friendly so flag and file layers can name the field.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("shard: invalid %s: %s", e.Field, e.Reason)
}

// check is one declarative validation rule: a field path and its verdict.
type check struct {
	field  string
	reason func() string // non-nil result = failure
}

func runChecks(checks []check) error {
	for _, c := range checks {
		if reason := c.reason(); reason != "" {
			return &ConfigError{Field: c.field, Reason: reason}
		}
	}
	return nil
}

// Validate checks the full configuration (a node's view: mesh AND client
// addresses must be present and unique cluster-wide). Client-only
// consumers use ValidateClient.
func (c *ClusterConfig) Validate() error {
	return c.validate(true)
}

// ValidateClient checks the client's view of the configuration: shard
// shapes and client addresses only (mesh addresses may be absent — a
// client never dials them).
func (c *ClusterConfig) ValidateClient() error {
	return c.validate(false)
}

func (c *ClusterConfig) validate(mesh bool) error {
	checks := []check{
		{"shards", func() string {
			if len(c.Shards) == 0 {
				return "need at least one shard"
			}
			if len(c.Shards) > MaxShards {
				return fmt.Sprintf("%d shards exceed the %d limit", len(c.Shards), MaxShards)
			}
			return ""
		}},
	}
	seen := make(map[string]string) // addr -> field that owns it
	for s := range c.Shards {
		s := s
		checks = append(checks, check{fmt.Sprintf("shards[%d].procs", s), func() string {
			if len(c.Shards[s].Procs) == 0 {
				return "need at least one process"
			}
			if len(c.Shards[s].Procs) > 255 {
				return fmt.Sprintf("%d processes exceed the 255 limit", len(c.Shards[s].Procs))
			}
			return ""
		}})
		for p := range c.Shards[s].Procs {
			s, p := s, p
			if mesh {
				field := fmt.Sprintf("shards[%d].procs[%d].mesh", s, p)
				checks = append(checks, check{field, func() string {
					return checkAddr(c.Shards[s].Procs[p].Mesh, field, seen)
				}})
			}
			field := fmt.Sprintf("shards[%d].procs[%d].client", s, p)
			checks = append(checks, check{field, func() string {
				return checkAddr(c.Shards[s].Procs[p].Client, field, seen)
			}})
		}
	}
	return runChecks(checks)
}

// checkAddr validates one listen address and records it for cluster-wide
// uniqueness (mesh and client ports share one namespace — a collision
// anywhere is a deployment mistake).
func checkAddr(addr, field string, seen map[string]string) string {
	if addr == "" {
		return "empty address"
	}
	if !strings.Contains(addr, ":") {
		return fmt.Sprintf("%q has no port", addr)
	}
	if prev, ok := seen[addr]; ok {
		return fmt.Sprintf("%q already used by %s", addr, prev)
	}
	seen[addr] = field
	return ""
}

// ShardOf returns the shard index key is placed on.
func (c *ClusterConfig) ShardOf(key string) int { return ShardOfKey(key, len(c.Shards)) }

// ShardOfKey hash-places key onto one of nshards shards. It is the one
// placement function in the system: servers use it to check ownership,
// clients to route, harnesses to build per-shard workloads.
//
// The hash is FNV-1a 64 with a final avalanche (xor-fold/multiply). The
// finalizer matters: raw FNV-1a's low bit is just the parity of the input
// bytes, so `fnv % 2` would send every key whose varying characters have a
// constant parity sum — e.g. "k-a0", "k-b1", "k-c2" — to the same shard.
func ShardOfKey(key string, nshards int) int {
	if nshards <= 1 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return int(h % uint64(nshards))
}

// Load parses a JSON ClusterConfig from r (unknown fields rejected, so a
// typo'd key fails loudly instead of silently defaulting) and validates
// the full node view.
func Load(r io.Reader) (*ClusterConfig, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var c ClusterConfig
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("shard: parse config: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// LoadFile is Load over a file path.
func LoadFile(path string) (*ClusterConfig, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("shard: open config: %w", err)
	}
	defer f.Close()
	return Load(f)
}

// ParseTopology builds a ClusterConfig from the flag surface shared by
// regnode and regctl: semicolon-separated shards of comma-separated
// addresses, mesh and client tables with identical shapes. meshList may be
// empty for client-only consumers (regctl routes by client addresses
// alone). The result is validated (full view when mesh addresses are
// given, client view otherwise).
//
//	-peers   "m00,m01,m02;m10,m11,m12"
//	-clients "c00,c01,c02;c10,c11,c12"
func ParseTopology(meshList, clientList string) (*ClusterConfig, error) {
	if clientList == "" {
		return nil, &ConfigError{Field: "clients", Reason: "empty client address table"}
	}
	clientShards := splitTable(clientList)
	var c ClusterConfig
	for _, addrs := range clientShards {
		sh := Shard{}
		for _, a := range addrs {
			sh.Procs = append(sh.Procs, Proc{Client: a})
		}
		c.Shards = append(c.Shards, sh)
	}
	if meshList != "" {
		meshShards := splitTable(meshList)
		if len(meshShards) != len(clientShards) {
			return nil, &ConfigError{Field: "peers", Reason: fmt.Sprintf(
				"%d shards in the mesh table, %d in the client table", len(meshShards), len(clientShards))}
		}
		for s, addrs := range meshShards {
			if len(addrs) != len(c.Shards[s].Procs) {
				return nil, &ConfigError{Field: fmt.Sprintf("peers (shard %d)", s), Reason: fmt.Sprintf(
					"%d mesh addresses for %d client addresses", len(addrs), len(c.Shards[s].Procs))}
			}
			for p, a := range addrs {
				c.Shards[s].Procs[p].Mesh = a
			}
		}
		if err := c.Validate(); err != nil {
			return nil, err
		}
		return &c, nil
	}
	if err := c.ValidateClient(); err != nil {
		return nil, err
	}
	return &c, nil
}

// splitTable splits "a,b;c,d" into [[a b] [c d]], trimming space.
func splitTable(s string) [][]string {
	var out [][]string
	for _, shard := range strings.Split(s, ";") {
		var addrs []string
		for _, a := range strings.Split(shard, ",") {
			addrs = append(addrs, strings.TrimSpace(a))
		}
		out = append(out, addrs)
	}
	return out
}

// Errors the service layers translate to client-protocol statuses.
var (
	// ErrWrongShard reports an operation whose key is not placed on the
	// serving node's shard (client routing table stale or wrong).
	ErrWrongShard = errors.New("shard: key is not placed on this shard")
	// ErrUnavailable reports a node that cannot serve right now (local
	// process down, mid-restart); another shard member can.
	ErrUnavailable = errors.New("shard: node unavailable")
)
