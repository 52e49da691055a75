package dap

import (
	"sync"

	"github.com/ares-storage/ares/internal/cfg"
	"github.com/ares-storage/ares/internal/transport"
)

// Cache memoizes per-configuration DAP clients for one transport endpoint.
//
// DAP clients are safe for concurrent use, but building one is not free — a
// TREAS client constructs its [n, k] erasure matrix. A cached client is
// also where a TREAS reader keeps its monotone read floor, the tag its
// get-data sends so servers leave out older List entries. Without caching, every phase of every operation (get-tag, get-data,
// put-data on each configuration in [µ, ν]) rebuilds the client. A Cache
// makes construction once-per-configuration: Get returns the memoized client
// until the configuration is invalidated.
//
// The invalidation rule follows the sequence traversal of Alg. 4/7: a client
// only ever addresses configurations from the last finalized one (µ) onward,
// so once the local sequence's µ moves past a configuration it is dead to
// this process and its entry is dropped (Retain). The sequence itself only
// grows, so IDs never get reused with different membership — a hit is always
// safe. Dropping or rebuilding a TREAS client loses its floor; the next
// client starts from tag.Zero and fetches whole Lists once, so that costs
// bytes, never correctness.
type Cache struct {
	reg *Registry
	rpc transport.Client

	mu      sync.Mutex
	clients map[cfg.ID]Client
}

// NewCache builds a cache over this registry for the given endpoint. Clients
// sharing an endpoint may share a cache; distinct endpoints must not, since
// DAP clients capture the endpoint they were built with.
func (r *Registry) NewCache(rpc transport.Client) *Cache {
	return &Cache{reg: r, rpc: rpc, clients: make(map[cfg.ID]Client)}
}

// Get returns the DAP client for configuration c, building and memoizing it
// on first use.
func (cc *Cache) Get(c cfg.Configuration) (Client, error) {
	cc.mu.Lock()
	if cl, ok := cc.clients[c.ID]; ok {
		cc.mu.Unlock()
		return cl, nil
	}
	cc.mu.Unlock()

	// Build outside the lock: construction can be expensive and two racing
	// builders are harmless (the first one stored wins and the loser's build
	// is discarded before any use, so no floor is lost).
	cl, err := cc.reg.New(c, cc.rpc)
	if err != nil {
		return nil, err
	}
	cc.mu.Lock()
	if existing, ok := cc.clients[c.ID]; ok {
		cl = existing
	} else {
		cc.clients[c.ID] = cl
	}
	cc.mu.Unlock()
	return cl, nil
}

// Invalidate drops the cached client for one configuration.
func (cc *Cache) Invalidate(id cfg.ID) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	delete(cc.clients, id)
}

// Retain drops every cached client whose configuration is not in live — the
// bulk invalidation a client applies after its sequence advances, keeping
// only the configurations still reachable by future operations.
func (cc *Cache) Retain(live map[cfg.ID]bool) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	for id := range cc.clients {
		if !live[id] {
			delete(cc.clients, id)
		}
	}
}

// Len reports the number of cached clients (for tests).
func (cc *Cache) Len() int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return len(cc.clients)
}
