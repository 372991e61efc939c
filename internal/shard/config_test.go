package shard

import (
	"errors"
	"strings"
	"testing"
)

func validConfig() *ClusterConfig {
	return &ClusterConfig{Shards: []Shard{
		{Procs: []Proc{
			{Mesh: "127.0.0.1:7000", Client: "127.0.0.1:7100"},
			{Mesh: "127.0.0.1:7001", Client: "127.0.0.1:7101"},
		}},
		{Procs: []Proc{
			{Mesh: "127.0.0.1:7010", Client: "127.0.0.1:7110"},
			{Mesh: "127.0.0.1:7011", Client: "127.0.0.1:7111"},
		}},
	}}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*ClusterConfig)
		field  string // "" = valid
	}{
		{"valid", func(c *ClusterConfig) {}, ""},
		{"no shards", func(c *ClusterConfig) { c.Shards = nil }, "shards"},
		{"empty shard", func(c *ClusterConfig) { c.Shards[1].Procs = nil }, "shards[1].procs"},
		{"missing mesh", func(c *ClusterConfig) { c.Shards[0].Procs[1].Mesh = "" }, "shards[0].procs[1].mesh"},
		{"missing client", func(c *ClusterConfig) { c.Shards[1].Procs[0].Client = "" }, "shards[1].procs[0].client"},
		{"portless address", func(c *ClusterConfig) { c.Shards[0].Procs[0].Client = "localhost" }, "shards[0].procs[0].client"},
		{"duplicate across shards", func(c *ClusterConfig) {
			c.Shards[1].Procs[1].Client = c.Shards[0].Procs[0].Client
		}, "shards[1].procs[1].client"},
		{"mesh/client collision", func(c *ClusterConfig) {
			c.Shards[0].Procs[0].Client = c.Shards[0].Procs[0].Mesh
		}, "shards[0].procs[0].client"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := validConfig()
			tc.mutate(c)
			err := c.Validate()
			if tc.field == "" {
				if err != nil {
					t.Fatalf("valid config rejected: %v", err)
				}
				return
			}
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("want *ConfigError, got %v", err)
			}
			if ce.Field != tc.field {
				t.Fatalf("flagged field %q, want %q (%v)", ce.Field, tc.field, err)
			}
		})
	}
}

func TestValidateClientIgnoresMesh(t *testing.T) {
	c := validConfig()
	for s := range c.Shards {
		for p := range c.Shards[s].Procs {
			c.Shards[s].Procs[p].Mesh = ""
		}
	}
	if err := c.ValidateClient(); err != nil {
		t.Fatalf("client view rejected mesh-less config: %v", err)
	}
	if err := c.Validate(); err == nil {
		t.Fatal("node view accepted mesh-less config")
	}
	c.Shards[1].Procs[1].Client = ""
	var ce *ConfigError
	if err := c.ValidateClient(); !errors.As(err, &ce) || ce.Field != "shards[1].procs[1].client" {
		t.Fatalf("client view missed empty client address: %v", err)
	}
}

func TestLoadJSON(t *testing.T) {
	good := `{"shards": [
	  {"procs": [{"mesh": "127.0.0.1:7000", "client": "127.0.0.1:7100"}]},
	  {"procs": [{"mesh": "127.0.0.1:7001", "client": "127.0.0.1:7101"}]}]}`
	c, err := Load(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Shards) != 2 || len(c.Shards[0].Procs) != 1 {
		t.Fatalf("parsed shape: %+v", c)
	}

	if _, err := Load(strings.NewReader(`{"shards": [], "typo": 1}`)); err == nil {
		t.Fatal("unknown JSON field accepted")
	}
	var ce *ConfigError
	if _, err := Load(strings.NewReader(`{"shards": []}`)); !errors.As(err, &ce) || ce.Field != "shards" {
		t.Fatalf("empty cluster not flagged: %v", err)
	}
	if _, err := Load(strings.NewReader(`not json`)); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

func TestParseTopology(t *testing.T) {
	c, err := ParseTopology(
		"127.0.0.1:7000,127.0.0.1:7001;127.0.0.1:7010,127.0.0.1:7011",
		"127.0.0.1:7100,127.0.0.1:7101;127.0.0.1:7110,127.0.0.1:7111",
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Shards) != 2 || len(c.Shards[1].Procs) != 2 {
		t.Fatalf("parsed shape: %+v", c)
	}
	if c.Shards[1].Procs[0].Mesh != "127.0.0.1:7010" || c.Shards[1].Procs[0].Client != "127.0.0.1:7110" {
		t.Fatalf("addresses misassigned: %+v", c.Shards[1].Procs[0])
	}

	// Client-only: no mesh table.
	c, err = ParseTopology("", "127.0.0.1:7100;127.0.0.1:7110")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Shards) != 2 || c.Shards[0].Procs[0].Mesh != "" {
		t.Fatalf("client-only shape: %+v", c)
	}

	var ce *ConfigError
	if _, err := ParseTopology("", ""); !errors.As(err, &ce) || ce.Field != "clients" {
		t.Fatalf("empty client table: %v", err)
	}
	if _, err := ParseTopology("127.0.0.1:7000", "127.0.0.1:7100;127.0.0.1:7110"); !errors.As(err, &ce) || ce.Field != "peers" {
		t.Fatalf("shard-count mismatch: %v", err)
	}
	if _, err := ParseTopology("127.0.0.1:7000;127.0.0.1:7010,127.0.0.1:7011",
		"127.0.0.1:7100;127.0.0.1:7110"); !errors.As(err, &ce) || !strings.Contains(ce.Field, "peers") {
		t.Fatalf("proc-count mismatch: %v", err)
	}
}

func TestShardOfKey(t *testing.T) {
	if got := ShardOfKey("anything", 1); got != 0 {
		t.Fatalf("single shard placement: %d", got)
	}
	// Deterministic, in-range, and actually spreading: over a few hundred
	// keys every shard of a small cluster must own something.
	// Regression: raw FNV-1a mod 2 is a parity function of the key bytes,
	// so this family — two varying characters whose parity sum is constant
	// — all landed on one shard before the avalanche finalizer.
	parity := make([]int, 2)
	for i := 0; i < 130; i++ {
		k := "smoke-" + string(rune('a'+i%26)) + string(rune('0'+i%10))
		parity[ShardOfKey(k, 2)]++
	}
	if parity[0] == 0 || parity[1] == 0 {
		t.Fatalf("constant-parity key family collapsed onto one shard: %v", parity)
	}

	for _, nshards := range []int{2, 3, 8} {
		counts := make([]int, nshards)
		for i := 0; i < 400; i++ {
			k := keyFor(i)
			s := ShardOfKey(k, nshards)
			if s != ShardOfKey(k, nshards) {
				t.Fatal("placement is not deterministic")
			}
			if s < 0 || s >= nshards {
				t.Fatalf("key %q placed out of range: %d of %d", k, s, nshards)
			}
			counts[s]++
		}
		for s, c := range counts {
			if c == 0 {
				t.Fatalf("shard %d of %d owns no key in 400", s, nshards)
			}
		}
	}
}

func keyFor(i int) string {
	return "key-" + string(rune('a'+i%26)) + string(rune('0'+i%10)) + string(rune('a'+(i/26)%26))
}
