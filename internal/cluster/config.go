package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"time"

	"repro/dterr"
	"repro/internal/store"
)

// Namespaces a datatamer cluster shards. Every node hosts its assigned
// shard indexes for both namespaces — instances and entities are
// co-located so a fused read touches one node per shard.
const (
	NSInstances = "dt.instance"
	NSEntities  = "dt.entity"
)

// Shard key paths, mirroring the single-process stores built by core.New.
const (
	instanceKeyPath = "source_url"
	entityKeyPath   = "name"
)

// NodeSpec describes one dtnode process in cluster.json.
type NodeSpec struct {
	// Name identifies the node in logs and /healthz.
	Name string `json:"name"`
	// Addr is the host:port the node's shard transport listens on.
	Addr string `json:"addr"`
	// Follower is the optional address of a read replica mirroring this
	// node's shards. Empty means reads go to the primary directly.
	Follower string `json:"follower,omitempty"`
	// Shards lists the shard indexes this node hosts.
	Shards []int `json:"shards"`
}

// Config is the static cluster membership, loaded from cluster.json. The
// paper's deployment assumes a fixed machine pool per ingest round, so
// membership is configuration, not consensus — and membership is all the
// file holds: documents are placed by FNV-1a mod-N, exactly where a
// single-process deployment puts them, and every node transport runs the
// default retry policy and circuit breaker.
type Config struct {
	// Shards is the total shard count across the cluster.
	Shards int `json:"shards"`
	// Nodes is the member list. Every shard index in [0,Shards) must be
	// owned by exactly one node.
	Nodes []NodeSpec `json:"nodes"`
}

// LoadConfig reads and validates a cluster.json file.
func LoadConfig(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseConfig(data)
}

// ParseConfig decodes and validates cluster.json bytes. A key the file
// format does not have is refused, so a misspelt or retired setting fails
// loudly instead of being ignored.
func ParseConfig(data []byte) (*Config, error) {
	var cfg Config
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return nil, dterr.Wrapf(dterr.CodeInvalidArgument, err, "cluster: config")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &cfg, nil
}

// Validate checks the membership invariants: at least one shard, at least
// one node, every shard owned exactly once, no duplicate names or blank
// addresses.
func (c *Config) Validate() error {
	if c.Shards < 1 {
		return dterr.Newf(dterr.CodeInvalidArgument, "cluster: config: shards must be >= 1, got %d", c.Shards)
	}
	if len(c.Nodes) == 0 {
		return dterr.New(dterr.CodeInvalidArgument, "cluster: config: no nodes")
	}
	owner := make(map[int]string)
	names := make(map[string]bool)
	for _, n := range c.Nodes {
		if n.Name == "" {
			return dterr.New(dterr.CodeInvalidArgument, "cluster: config: node with empty name")
		}
		if names[n.Name] {
			return dterr.Newf(dterr.CodeInvalidArgument, "cluster: config: duplicate node name %q", n.Name)
		}
		names[n.Name] = true
		if n.Addr == "" {
			return dterr.Newf(dterr.CodeInvalidArgument, "cluster: config: node %q has no addr", n.Name)
		}
		for _, s := range n.Shards {
			if s < 0 || s >= c.Shards {
				return dterr.Newf(dterr.CodeInvalidArgument, "cluster: config: node %q shard %d out of range [0,%d)", n.Name, s, c.Shards)
			}
			if prev, dup := owner[s]; dup {
				return dterr.Newf(dterr.CodeInvalidArgument, "cluster: config: shard %d owned by both %q and %q", s, prev, n.Name)
			}
			owner[s] = n.Name
		}
	}
	for s := 0; s < c.Shards; s++ {
		if _, ok := owner[s]; !ok {
			return dterr.Newf(dterr.CodeInvalidArgument, "cluster: config: shard %d has no owner", s)
		}
	}
	return nil
}

// Owner returns the node spec hosting shard idx.
func (c *Config) Owner(idx int) *NodeSpec {
	for i := range c.Nodes {
		for _, s := range c.Nodes[i].Shards {
			if s == idx {
				return &c.Nodes[i]
			}
		}
	}
	return nil
}

// Cluster is a connected client view of the cluster: one sharded router
// per namespace, backed by RemoteShard proxies over pooled transports.
type Cluster struct {
	Config    *Config
	Instances *store.Sharded
	Entities  *store.Sharded

	transports []Transport
}

// Connect builds the client view from a validated config. Transports dial
// lazily, so Connect succeeds even while nodes are still starting; the
// first call surfaces any connectivity failure as dterr.CodeBusy.
func Connect(cfg *Config, timeout time.Duration) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cl := &Cluster{Config: cfg}
	// Every transport address gets a stable name for breaker metrics:
	// the owning node's configured name, with a "-follower" suffix for
	// replica addresses.
	nameOf := make(map[string]string)
	for i := range cfg.Nodes {
		n := &cfg.Nodes[i]
		if _, ok := nameOf[n.Addr]; !ok {
			nameOf[n.Addr] = n.Name
		}
		if n.Follower != "" {
			if _, ok := nameOf[n.Follower]; !ok {
				nameOf[n.Follower] = n.Name + "-follower"
			}
		}
	}
	byAddr := make(map[string]Transport)
	transport := func(addr string) Transport {
		if addr == "" {
			return nil
		}
		if t, ok := byAddr[addr]; ok {
			return t
		}
		t := NewResilientTransport(nameOf[addr], Dial(addr, timeout), DefaultRetryPolicy(), NewBreaker(nameOf[addr], 0, 0), 0)
		byAddr[addr] = t
		cl.transports = append(cl.transports, t)
		return t
	}

	instances := make([]store.ShardBackend, cfg.Shards)
	entities := make([]store.ShardBackend, cfg.Shards)
	for idx := 0; idx < cfg.Shards; idx++ {
		spec := cfg.Owner(idx)
		primary := transport(spec.Addr)
		follower := transport(spec.Follower)
		instances[idx] = NewRemoteShard(NSInstances, idx, primary, follower)
		entities[idx] = NewRemoteShard(NSEntities, idx, primary, follower)
	}
	var err error
	if cl.Instances, err = store.NewShardedBackends(NSInstances, instanceKeyPath, instances); err != nil {
		return nil, err
	}
	if cl.Entities, err = store.NewShardedBackends(NSEntities, entityKeyPath, entities); err != nil {
		return nil, err
	}
	return cl, nil
}

// Warm probes every shard of both namespaces and reports whether the
// cluster already holds data — i.e. the nodes recovered state from their
// node-local WAL/checkpoints and the coordinator must not re-run batch
// ingest against them. The probe is an OpStats to the shard's primary,
// whose reply, like every reply, carries the shard's generation. Warm
// means every shard's generation is positive
// (any batch run bumps every shard at least once while building indexes);
// all-zero generations mean a cold cluster. A mix is unsafe either way —
// re-ingesting would duplicate the warm shards' documents — so it is an
// error telling the operator to wipe the node data directories.
func (c *Cluster) Warm(ctx context.Context) (bool, error) {
	var warmShards, total int
	for _, s := range []*store.Sharded{c.Instances, c.Entities} {
		for i := 0; i < s.NumShards(); i++ {
			rs, ok := s.Backend(i).(*RemoteShard)
			if !ok {
				continue
			}
			resp, err := rs.callPrimary(ctx, OpStats, nil)
			if err != nil {
				return false, dterr.Wrapf(dterr.CodeOf(err), err, "cluster: probing %s shard %d", s.NS(), i)
			}
			total++
			if resp.Gen > 0 {
				warmShards++
			}
		}
	}
	if warmShards == 0 {
		return false, nil
	}
	if warmShards < total {
		return false, dterr.Newf(dterr.CodeUnavailable,
			"cluster: %d of %d shards hold data while the rest are empty; wipe the node data directories (or restore the missing ones) before reconnecting",
			warmShards, total)
	}
	return true, nil
}

// Close closes every transport.
func (c *Cluster) Close() error {
	var first error
	for _, t := range c.transports {
		if err := t.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// BuildNode constructs the hosting Node for spec, one member of a cluster
// config (which holds nothing else a node needs): one collection per
// (namespace, shard index) pair at the default extent size, keyed for the
// wire protocol. readOnly builds a follower node (same shard set, mutated
// only by replication).
func BuildNode(_ *Config, spec *NodeSpec, readOnly bool) *Node {
	n := NewNode(spec.Name)
	n.readOnly = readOnly
	for _, idx := range spec.Shards {
		n.AddShard(ShardKey(NSInstances, idx), store.NewCollection(NSInstances, 0))
		n.AddShard(ShardKey(NSEntities, idx), store.NewCollection(NSEntities, 0))
	}
	return n
}
