package core

import (
	"fmt"
	"path/filepath"
	"sync"

	"github.com/ares-storage/ares/internal/cfg"
	"github.com/ares-storage/ares/internal/dap"
	"github.com/ares-storage/ares/internal/keystate"
	"github.com/ares-storage/ares/internal/node"
	"github.com/ares-storage/ares/internal/recon"
	"github.com/ares-storage/ares/internal/transport"
	"github.com/ares-storage/ares/internal/types"
)

// Cluster is a single-process ARES deployment over a simulated network:
// hosts for every server, an initial configuration installed, and factories
// for readers, writers, and reconfigurers. Tests, benchmarks, and examples
// build on it; the multi-process path assembles the same pieces over TCP in
// cmd/ares-server.
type Cluster struct {
	network *transport.Simnet
	daps    *dap.Registry
	initial cfg.Configuration

	mu    sync.Mutex
	hosts map[types.ProcessID]*Host

	// Durability (see durable.go): once EnableDurability ran, every current
	// and future host journals under durDir/<id>, and RestartHost recovers
	// from there instead of preserving in-memory state.
	durable bool
	durDir  string
	durOpts []keystate.DurOption
}

// NewCluster deploys the initial configuration c0 on net: it creates a host
// per server (plus any extras), installs c0's services, and returns the
// cluster handle.
func NewCluster(c0 cfg.Configuration, net *transport.Simnet, extraServers ...types.ProcessID) (*Cluster, error) {
	if err := c0.Validate(); err != nil {
		return nil, fmt.Errorf("core: cluster bootstrap: %w", err)
	}
	cl := &Cluster{
		network: net,
		daps:    NewRegistry(),
		initial: c0,
		hosts:   make(map[types.ProcessID]*Host),
	}
	members := append(append([]types.ProcessID(nil), c0.Servers...), extraServers...)
	for _, id := range members {
		cl.AddHost(id)
	}
	for _, h := range cl.hosts {
		if err := h.InstallConfiguration(c0); err != nil {
			return nil, err
		}
	}
	return cl, nil
}

// AddHost spins up (or returns) the host for a server process, registering
// it on the network. New servers destined for future configurations are
// added this way before a reconfig proposes them.
func (c *Cluster) AddHost(id types.ProcessID) *Host {
	c.mu.Lock()
	defer c.mu.Unlock()
	if h, ok := c.hosts[id]; ok {
		return h
	}
	h := NewHost(node.New(id), c.network.Client(id))
	if c.durable {
		// Recovery runs before the host is registered (hence reachable):
		// this is the Simnet analogue of a server replaying its logs before
		// its listener accepts. A host failing recovery would be a
		// programming error in tests; surface it loudly.
		if _, err := h.EnableDurability(filepath.Join(c.durDir, string(id)), c.durOpts...); err != nil {
			panic(fmt.Sprintf("core: enabling durability for %s: %v", id, err))
		}
	}
	c.network.Register(id, h.Node())
	c.hosts[id] = h
	return h
}

// Host returns the host for id, if present.
func (c *Cluster) Host(id types.ProcessID) (*Host, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h, ok := c.hosts[id]
	return h, ok
}

// Network returns the underlying simulated network.
func (c *Cluster) Network() *transport.Simnet { return c.network }

// Initial returns the bootstrap configuration c0.
func (c *Cluster) Initial() cfg.Configuration { return c.initial }

// Registry returns the cluster's DAP registry.
func (c *Cluster) Registry() *dap.Registry { return c.daps }

// InstallConfiguration provisions conf on the cluster: hosts are created for
// any new servers and the configuration registered with every member's
// resolver. conf may be a concrete configuration or a per-key template (ID
// embedding cfg.KeyPlaceholder) — a template registered once serves every
// key, with per-key state materialized lazily on first touch. Used to
// bootstrap independent registers outside the reconfiguration path.
func (c *Cluster) InstallConfiguration(conf cfg.Configuration) error {
	// Validate up front: a malformed configuration (e.g. no servers at all)
	// must fail here, not dissolve into an empty member loop, and must not
	// leave hosts created for some members before another member's
	// validation fails.
	if conf.IsTemplate() {
		if err := cfg.ValidateTemplate(conf); err != nil {
			return err
		}
	} else if err := conf.Validate(); err != nil {
		return err
	}
	for _, id := range conf.Servers {
		if err := c.AddHost(id).InstallConfiguration(conf); err != nil {
			return err
		}
	}
	return nil
}

// ServiceInstances sums the hosted service instances across every host —
// the quantity the keyed hosting model keeps O(1) in keys (for tests and
// the bench harness).
func (c *Cluster) ServiceInstances() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for _, h := range c.hosts {
		total += h.ServiceInstances()
	}
	return total
}

// MaterializedStates sums the live (key, config) state entries across every
// host — the quantity the lifecycle GC keeps O(live configurations) rather
// than O(reconfiguration walks) (for tests and the bench harness).
func (c *Cluster) MaterializedStates() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for _, h := range c.hosts {
		total += h.MaterializedStates()
	}
	return total
}

// RetiredStates sums the garbage-collected (key, config) state entries
// across every host.
func (c *Cluster) RetiredStates() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total int64
	for _, h := range c.hosts {
		total += h.RetiredStates()
	}
	return total
}

// Close releases the cluster's background resources — today, the simulated
// network's timer-fidelity pump goroutine. Every constructed cluster should
// be closed when done (tests, benches, examples): an unclosed cluster
// strands a parked goroutine for the life of the process. Close is
// idempotent, and the cluster remains usable afterwards (delay sleeps merely
// lose pump fidelity).
func (c *Cluster) Close() {
	c.mu.Lock()
	for _, h := range c.hosts {
		_ = h.Close()
	}
	c.mu.Unlock()
	c.network.Close()
}

// NewClient returns an ARES reader/writer rooted at c0.
func (c *Cluster) NewClient(id types.ProcessID) (*Client, error) {
	return c.NewClientFor(id, c.initial)
}

// NewClientFor returns a reader/writer rooted at an arbitrary configuration
// — the bootstrap hook for registers other than the cluster's default (a
// composed key-value store keeps one register, hence one configuration
// chain, per key).
func (c *Cluster) NewClientFor(id types.ProcessID, root cfg.Configuration) (*Client, error) {
	return NewClient(id, root, c.network.Client(id), c.daps)
}

// NewReconfigurer returns a reconfiguration client rooted at c0, wired to
// provision new configurations through the hosts' control services.
func (c *Cluster) NewReconfigurer(id types.ProcessID, opts recon.Options) (*recon.Client, error) {
	return c.NewReconfigurerFor(id, c.initial, opts)
}

// NewReconfigurerFor returns a reconfigurer rooted at an arbitrary
// configuration (see NewClientFor).
func (c *Cluster) NewReconfigurerFor(id types.ProcessID, root cfg.Configuration, opts recon.Options) (*recon.Client, error) {
	rpc := c.network.Client(id)
	return recon.NewClient(id, root, rpc, c.daps, RemoteInstaller(rpc), opts)
}
