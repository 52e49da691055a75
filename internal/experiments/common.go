package experiments

import (
	"context"
	"fmt"
	"time"

	"github.com/ares-storage/ares/internal/cfg"
	"github.com/ares-storage/ares/internal/core"
	"github.com/ares-storage/ares/internal/transport"
	"github.com/ares-storage/ares/internal/types"
)

// Shared deployment helpers for all experiments.

// treasCfg builds a TREAS configuration with fresh server names.
func treasCfg(id cfg.ID, prefix string, n, k, delta int) cfg.Configuration {
	c := cfg.Configuration{ID: id, Algorithm: cfg.TREAS, K: k, Delta: delta}
	for i := 1; i <= n; i++ {
		c.Servers = append(c.Servers, types.ProcessID(fmt.Sprintf("%s-s%d", prefix, i)))
	}
	return c
}

// abdCfg builds an ABD configuration with fresh server names.
func abdCfg(id cfg.ID, prefix string, n int) cfg.Configuration {
	c := cfg.Configuration{ID: id, Algorithm: cfg.ABD}
	for i := 1; i <= n; i++ {
		c.Servers = append(c.Servers, types.ProcessID(fmt.Sprintf("%s-s%d", prefix, i)))
	}
	return c
}

// deploy builds a cluster for c0 plus hosts for any extra configurations.
func deploy(c0 cfg.Configuration, net *transport.Simnet, extras ...cfg.Configuration) (*core.Cluster, error) {
	cluster, err := core.NewCluster(c0, net)
	if err != nil {
		return nil, err
	}
	for _, c := range extras {
		for _, s := range c.Servers {
			cluster.AddHost(s)
		}
	}
	return cluster, nil
}

// kOfN is the paper's running choice k = ⌈2n/3⌉ (TREAS requires k > n/3;
// the evaluation uses the storage-optimal upper end).
func kOfN(n int) int {
	return (2*n + 2) / 3
}

// value builds a deterministic payload of the given size.
func value(size int, seed byte) types.Value {
	v := make(types.Value, size)
	for i := range v {
		v[i] = byte(i)*7 + seed
	}
	return v
}

// storageTotal sums object bytes at rest across the given servers.
func storageTotal(cluster *core.Cluster, servers []types.ProcessID) int {
	total := 0
	for _, s := range servers {
		if h, ok := cluster.Host(s); ok {
			total += h.StorageBytes()
		}
	}
	return total
}

// opCtx returns a generously bounded context for one experiment phase.
func opCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 2*time.Minute)
}
