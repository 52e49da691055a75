package ares

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/ares-storage/ares/internal/cfg"
	"github.com/ares-storage/ares/internal/core"
	"github.com/ares-storage/ares/internal/keystate"
	"github.com/ares-storage/ares/internal/obs"
	"github.com/ares-storage/ares/internal/transport"
	"github.com/ares-storage/ares/internal/treas"
)

// ObjectStore composes many independent ARES registers — one per object key
// — over a shared server pool. This is the paper's §1 composability claim
// made concrete: "atomic objects are composable, enabling the creation of
// large shared memory systems from individual atomic data objects".
//
// Each key owns its own configuration chain, so per-key operations are
// atomic, keys never contend, and each key can be reconfigured (even to a
// different algorithm or code) independently. Hosting is keyspace-native:
// servers run one service per algorithm family and derive each key's
// configuration from a template installed once at store construction, so a
// key's first operation triggers no installation round-trips and its
// steady-state server cost is a map entry, not a service stack.
//
// The store's own bookkeeping is sharded: keys hash onto one of N shards,
// each with its own lock and client map, so unrelated keys never serialize
// on store metadata either. Register clients draw their network identity
// from a fixed endpoint pool instead of claiming one per key, and MultiPut
// / MultiGet fan batched operations out across shards with bounded
// parallelism.
type ObjectStore struct {
	cluster  *Cluster
	name     string
	template Config
	pool     *core.EndpointPool

	shards   []storeShard
	batchPar int
	idleTTL  time.Duration
	now      func() time.Time
}

// storeShard holds the per-key state of one hash shard.
type storeShard struct {
	mu        sync.Mutex
	clients   map[string]*clientEntry
	recons    map[string]*reconEntry
	lastSweep time.Time
}

// clientEntry wraps a per-key register client with the bookkeeping idle
// eviction needs: when it was last handed out, and how many operations are
// in flight on it. Entries with in-flight operations are never evicted, so a
// replacement client (with a possibly different pooled endpoint identity)
// can never mint tags concurrently with its predecessor.
type clientEntry struct {
	client   *Client
	lastUse  time.Time
	inflight int
}

// reconEntry is the reconfigurer counterpart of clientEntry. Its derived
// process identity ("<store>-recon/<key>") is the consensus proposer
// identity, so the in-flight guard doubles as ballot-uniqueness protection:
// a key never has two live proposers under that identity.
type reconEntry struct {
	recon    *Reconfigurer
	lastUse  time.Time
	inflight int
}

const (
	defaultShardCount  = 16
	defaultPoolSize    = 16
	defaultBatchFanout = 16
)

// storeConfig collects option values before the store is assembled.
type storeConfig struct {
	name     string
	shards   int
	poolSize int
	batchPar int
	idleTTL  time.Duration
}

// StoreOption configures an ObjectStore.
type StoreOption func(*storeConfig)

// WithStoreName sets the namespace the store's per-key configuration IDs
// are derived under (default "store"). Two ObjectStores over one cluster
// must use distinct names (or identical templates): each name owns one
// template, and registering a different template under an existing name
// fails at construction rather than silently aliasing keys onto the first
// store's parameters.
func WithStoreName(name string) StoreOption {
	return func(c *storeConfig) { c.name = name }
}

// WithShardCount sets the number of metadata shards (default 16). More
// shards reduce contention on first-touch instantiation when many distinct
// keys arrive concurrently.
func WithShardCount(n int) StoreOption {
	return func(c *storeConfig) { c.shards = n }
}

// WithEndpointPoolSize sets how many network endpoints the store's register
// clients share (default 16).
func WithEndpointPoolSize(n int) StoreOption {
	return func(c *storeConfig) { c.poolSize = n }
}

// WithBatchConcurrency bounds the parallelism of MultiPut and MultiGet
// (default 16): at most n per-key operations are in flight per batch call.
func WithBatchConcurrency(n int) StoreOption {
	return func(c *storeConfig) { c.batchPar = n }
}

// WithClientIdleTTL bounds the store's per-key client cache by idleness: a
// register client (and the key's reconfigurer) unused for at least ttl is
// eligible for eviction, performed opportunistically as other keys in the
// same shard are touched (amortized — at most one sweep per shard per ttl).
// The default (0) keeps clients forever, the right call for bounded
// keyspaces; a store that touches millions of keys should set a TTL so it
// does not pin millions of clients. Eviction is invisible to correctness: a
// re-touched key rebuilds its client, which rediscovers the key's current
// configuration chain through read-config.
func WithClientIdleTTL(ttl time.Duration) StoreOption {
	return func(c *storeConfig) { c.idleTTL = ttl }
}

// NewObjectStore builds a store whose per-key registers are instantiated
// from template: the template's Servers, Algorithm, and parameters apply to
// every key's initial configuration; the ID field is derived per key.
//
// The template is installed on the server pool exactly once, here. A fresh
// key's first operation performs zero installation round-trips: servers
// derive the key's configuration from the installed template and materialize
// its state on the first message that names it, so per-key cost is one map
// entry per server rather than an installed service stack.
func NewObjectStore(cluster *Cluster, template Config, opts ...StoreOption) (*ObjectStore, error) {
	sc := storeConfig{name: "store", shards: defaultShardCount, poolSize: defaultPoolSize, batchPar: defaultBatchFanout}
	for _, opt := range opts {
		opt(&sc)
	}
	if sc.name == "" {
		sc.name = "store"
	}
	if sc.shards < 1 {
		sc.shards = 1
	}
	if sc.batchPar < 1 {
		sc.batchPar = 1
	}
	tmpl := template
	tmpl.ID = ConfigID(sc.name + "/" + cfg.KeyPlaceholder + "/c0")
	if err := cfg.ValidateTemplate(tmpl); err != nil {
		return nil, fmt.Errorf("ares: object store template: %w", err)
	}
	// Installed once; a second store re-registering the same name with a
	// different template is rejected by the hosts (conflicting ID).
	if err := cluster.InstallConfiguration(tmpl); err != nil {
		return nil, fmt.Errorf("ares: installing object store template: %w", err)
	}
	s := &ObjectStore{
		cluster:  cluster,
		name:     sc.name,
		template: tmpl,
		pool:     cluster.NewEndpointPool(sc.name+"-client", sc.poolSize),
		shards:   make([]storeShard, sc.shards),
		batchPar: sc.batchPar,
		idleTTL:  sc.idleTTL,
		now:      time.Now,
	}
	for i := range s.shards {
		s.shards[i].clients = make(map[string]*clientEntry)
		s.shards[i].recons = make(map[string]*reconEntry)
	}
	// Per-store cached-client gauge, polled at scrape time. A re-created
	// store with the same name simply re-points the gauge (last wins).
	obs.Default.GaugeFunc(`ares_store_clients{store="`+sc.name+`"}`,
		"Cached per-key clients and reconfigurers, by store",
		func() int64 { return int64(s.ClientCount()) })
	return s, nil
}

// shard maps a key to its metadata shard. keystate.HashString is an inlined
// FNV-1a loop: hash/fnv's New32a allocates its hasher on the heap, which
// this lookup — on the path of every store operation — must not.
func (s *ObjectStore) shard(key string) *storeShard {
	return &s.shards[keystate.HashString(key)%uint32(len(s.shards))]
}

// keyConfig derives the initial configuration for a key by instantiating
// the installed template — the same derivation every server performs, so
// client and servers agree on the configuration without talking.
func (s *ObjectStore) keyConfig(key string) Config {
	return s.template.ForKey(key)
}

// register returns (instantiating on first use) the register client for key,
// pinned against eviction until release is called. Only keys in the same
// shard contend on the instantiation lock. No installation happens here —
// the servers already know the template.
func (s *ObjectStore) register(key string) (*Client, func(), error) {
	sh := s.shard(key)
	now := s.now()
	sh.mu.Lock()
	s.sweepLocked(sh, now)
	e, ok := sh.clients[key]
	if !ok {
		id, rpc := s.pool.Get()
		client, err := s.cluster.NewClientVia(id, s.keyConfig(key), rpc)
		if err != nil {
			sh.mu.Unlock()
			return nil, nil, err
		}
		e = &clientEntry{client: client}
		sh.clients[key] = e
	}
	e.lastUse = now
	e.inflight++
	sh.mu.Unlock()

	release := func() {
		sh.mu.Lock()
		// The entry may have been replaced after a Forget raced with this
		// operation; only decrement the entry this operation pinned.
		if cur, ok := sh.clients[key]; ok && cur == e {
			cur.inflight--
			cur.lastUse = s.now()
		} else {
			e.inflight--
		}
		sh.mu.Unlock()
	}
	return e.client, release, nil
}

// sweepLocked opportunistically evicts the shard's idle entries. It runs at
// most once per idleTTL per shard (so a hot shard pays one map scan per TTL
// window, not per operation) and skips entries with operations in flight.
// Callers hold sh.mu.
func (s *ObjectStore) sweepLocked(sh *storeShard, now time.Time) {
	if s.idleTTL <= 0 || now.Sub(sh.lastSweep) < s.idleTTL {
		return
	}
	sh.lastSweep = now
	evicted := int64(0)
	for k, e := range sh.clients {
		if e.inflight == 0 && now.Sub(e.lastUse) >= s.idleTTL {
			delete(sh.clients, k)
			evicted++
		}
	}
	for k, e := range sh.recons {
		if e.inflight == 0 && now.Sub(e.lastUse) >= s.idleTTL {
			delete(sh.recons, k)
			evicted++
		}
	}
	if evicted > 0 {
		storeEvictions.Add(evicted)
	}
}

// Put atomically sets key to value.
func (s *ObjectStore) Put(ctx context.Context, key string, value Value) error {
	_, err := s.WriteKey(ctx, key, value)
	return err
}

// WriteKey is Put returning the tag assigned to the written value — the
// handle linearizability checkers need.
func (s *ObjectStore) WriteKey(ctx context.Context, key string, value Value) (Tag, error) {
	c, release, err := s.register(key)
	if err != nil {
		return Tag{}, err
	}
	defer release()
	t, err := c.Write(ctx, value)
	if err != nil {
		storeFailures.Inc()
		return t, err
	}
	storeWrites.Inc()
	return t, nil
}

// Get atomically reads key. A never-written key returns the register's
// initial (empty) value.
func (s *ObjectStore) Get(ctx context.Context, key string) (Value, error) {
	pair, err := s.ReadKey(ctx, key)
	if err != nil {
		return nil, err
	}
	return pair.Value, nil
}

// ReadKey is Get returning the full tag-value pair.
func (s *ObjectStore) ReadKey(ctx context.Context, key string) (Pair, error) {
	c, release, err := s.register(key)
	if err != nil {
		return Pair{}, err
	}
	defer release()
	pair, err := c.Read(ctx)
	if err != nil {
		storeFailures.Inc()
		return pair, err
	}
	storeReads.Inc()
	return pair, nil
}

// KeyError couples a key with the error its per-key operation returned.
type KeyError struct {
	Key string
	Err error
}

// BatchError aggregates the per-key failures of a MultiPut or MultiGet.
// Keys absent from Failed completed successfully.
type BatchError struct {
	// Op names the batch operation ("multiput" or "multiget").
	Op string
	// Failed lists the failed keys in lexical order.
	Failed []KeyError
}

// FailedKeys returns just the failed keys, in lexical order. Callers that
// cannot name the BatchError type (e.g. internal packages matching via an
// interface) use it to tell a partial failure from a total one.
func (e *BatchError) FailedKeys() []string {
	keys := make([]string, len(e.Failed))
	for i, ke := range e.Failed {
		keys[i] = ke.Key
	}
	return keys
}

// Error summarizes the aggregated failures.
func (e *BatchError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ares: %s: %d key(s) failed:", e.Op, len(e.Failed))
	for i, ke := range e.Failed {
		if i == 3 {
			fmt.Fprintf(&b, " … (%d more)", len(e.Failed)-i)
			break
		}
		fmt.Fprintf(&b, " %q: %v;", ke.Key, ke.Err)
	}
	return strings.TrimSuffix(b.String(), ";")
}

// batch fans per-key operations out with bounded parallelism and collects
// failures into a BatchError (nil if every key succeeded).
func (s *ObjectStore) batch(op string, keys []string, apply func(key string) error) error {
	sem := make(chan struct{}, s.batchPar)
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		failed []KeyError
	)
	for _, key := range keys {
		key := key
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			if err := apply(key); err != nil {
				mu.Lock()
				failed = append(failed, KeyError{Key: key, Err: err})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(failed) == 0 {
		return nil
	}
	sort.Slice(failed, func(i, j int) bool { return failed[i].Key < failed[j].Key })
	return &BatchError{Op: op, Failed: failed}
}

// MultiPut atomically sets each key of kv to its value, fanning the per-key
// writes out across shards with bounded parallelism. Each key's write is
// individually atomic (the batch as a whole is not a transaction). On
// partial failure the returned error is a *BatchError naming exactly the
// keys that failed; the rest are durably written.
func (s *ObjectStore) MultiPut(ctx context.Context, kv map[string]Value) error {
	keys := make([]string, 0, len(kv))
	for k := range kv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return s.batch("multiput", keys, func(key string) error {
		return s.Put(ctx, key, kv[key])
	})
}

// MultiGet atomically reads each key, fanning the per-key reads out across
// shards with bounded parallelism. Duplicate keys are read once. The
// returned map holds a value for every key whose read succeeded (a
// never-written key succeeds with the initial empty value); on partial
// failure the error is a *BatchError naming the keys that failed.
func (s *ObjectStore) MultiGet(ctx context.Context, keys ...string) (map[string]Value, error) {
	uniq := make([]string, 0, len(keys))
	seen := make(map[string]bool, len(keys))
	for _, k := range keys {
		if !seen[k] {
			seen[k] = true
			uniq = append(uniq, k)
		}
	}
	var mu sync.Mutex
	out := make(map[string]Value, len(uniq))
	err := s.batch("multiget", uniq, func(key string) error {
		v, err := s.Get(ctx, key)
		if err != nil {
			return err
		}
		mu.Lock()
		out[key] = v
		mu.Unlock()
		return nil
	})
	return out, err
}

// ReconfigureKey migrates one key's register to a new configuration while
// reads and writes on that key (and all others) continue.
func (s *ObjectStore) ReconfigureKey(ctx context.Context, key string, next Config, opts ReconOptions) error {
	_, release, err := s.register(key)
	if err != nil {
		return err
	}
	defer release()
	// The reconfigurer is created under the shard lock: its derived process
	// ID is the consensus proposer identity, and ballot uniqueness requires
	// that concurrent proposers never share one — racing first calls must
	// not each build a live "store-recon/<key>" proposer. The in-flight pin
	// extends the same guarantee across eviction: an entry mid-Reconfig is
	// never swept, so the identity is never duplicated.
	sh := s.shard(key)
	sh.mu.Lock()
	e, ok := sh.recons[key]
	if !ok {
		g, err := s.cluster.NewReconfigurerFor(ProcessID(s.name+"-recon/"+key), s.keyConfig(key), opts)
		if err != nil {
			sh.mu.Unlock()
			return err
		}
		e = &reconEntry{recon: g}
		sh.recons[key] = e
	}
	e.lastUse = s.now()
	e.inflight++
	sh.mu.Unlock()
	defer func() {
		sh.mu.Lock()
		e.inflight--
		e.lastUse = s.now()
		sh.mu.Unlock()
	}()
	for _, srv := range next.Servers {
		s.cluster.AddHost(srv)
	}
	// Bind the proposal to this key (ForKey also expands a template ID), so
	// its messages route to this key's state on every server.
	if _, err := e.recon.Reconfig(ctx, next.ForKey(key)); err != nil {
		return fmt.Errorf("ares: reconfiguring key %q: %w", key, err)
	}
	return nil
}

// Forget drops key's cached register client and reconfigurer, if any,
// reporting whether anything was dropped — the explicit counterpart of idle
// eviction for callers that know a key has gone cold (mirrors
// dap.Cache.Retain's role one layer down). Like the idle sweeps, Forget
// skips entries with operations in flight: the entry's identity (a pooled
// endpoint for clients, the derived consensus-proposer process ID for
// reconfigurers) must never be live twice, so an in-flight entry survives
// and a later Forget — or the TTL sweep — collects it once it quiesces.
func (s *ObjectStore) Forget(key string) bool {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	dropped := false
	if e, ok := sh.clients[key]; ok && e.inflight == 0 {
		delete(sh.clients, key)
		dropped = true
	}
	if e, ok := sh.recons[key]; ok && e.inflight == 0 {
		delete(sh.recons, key)
		dropped = true
	}
	if dropped {
		storeForgets.Inc()
	}
	return dropped
}

// EvictIdle immediately evicts every cached client and reconfigurer idle for
// at least olderThan (zero evicts everything not in flight), returning how
// many entries were dropped. It complements the TTL's opportunistic, amortized
// sweeps with an explicit full sweep — e.g. after a bulk load, or from a
// memory-pressure hook.
func (s *ObjectStore) EvictIdle(olderThan time.Duration) int {
	now := s.now()
	evicted := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k, e := range sh.clients {
			if e.inflight == 0 && now.Sub(e.lastUse) >= olderThan {
				delete(sh.clients, k)
				evicted++
			}
		}
		for k, e := range sh.recons {
			if e.inflight == 0 && now.Sub(e.lastUse) >= olderThan {
				delete(sh.recons, k)
				evicted++
			}
		}
		sh.mu.Unlock()
	}
	storeEvictions.Add(int64(evicted))
	return evicted
}

// ClientCount reports how many per-key clients and reconfigurers the store
// currently caches (for tests and capacity monitoring).
func (s *ObjectStore) ClientCount() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.clients) + len(sh.recons)
		sh.mu.Unlock()
	}
	return n
}

// Keys returns the keys with instantiated registers, in no particular order.
func (s *ObjectStore) Keys() []string {
	var keys []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k := range sh.clients {
			keys = append(keys, k)
		}
		sh.mu.Unlock()
	}
	return keys
}

// RepairServer reconstructs the coded elements missing at one server of a
// TREAS configuration — recovery from state loss without a reconfiguration
// (the paper's "efficient repair" future-work direction). It returns how
// many elements were installed. rpc is the repairing process's endpoint
// (e.g. net.Client("repairer") or a TCP client).
func RepairServer(ctx context.Context, rpc transport.Client, c Config, target ProcessID) (int, error) {
	return treas.Repair(ctx, rpc, c, target)
}
