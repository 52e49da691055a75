package ares

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"
	"time"
)

// newShardProbe builds a minimally-initialized store for shard-placement
// tests (no cluster needed; shard touches only s.shards).
func newShardProbe(n int) *ObjectStore {
	return &ObjectStore{shards: make([]storeShard, n)}
}

// TestShardMatchesFNV1a pins that the inlined loop computes exactly what the
// previous hash/fnv implementation did, so key→shard placement is unchanged
// across the optimization.
func TestShardMatchesFNV1a(t *testing.T) {
	t.Parallel()
	s := newShardProbe(16)
	for _, key := range []string{"", "a", "user:42", "π-κλειδί", "a-much-longer-object-key/with/segments"} {
		h := fnv.New32a()
		h.Write([]byte(key))
		want := &s.shards[h.Sum32()%uint32(len(s.shards))]
		if got := s.shard(key); got != want {
			t.Errorf("shard(%q) diverged from FNV-1a placement", key)
		}
	}
}

// TestShardZeroAllocs is the satellite assertion: the per-operation shard
// lookup allocates nothing (hash/fnv's New32a used to heap-allocate a hasher
// per call).
func TestShardZeroAllocs(t *testing.T) {
	s := newShardProbe(16)
	allocs := testing.AllocsPerRun(1000, func() {
		s.shard("benchmark-key/with-some-length")
	})
	if allocs != 0 {
		t.Fatalf("shard lookup allocates %.1f/op, want 0", allocs)
	}
}

func BenchmarkStoreShardLookup(b *testing.B) {
	s := newShardProbe(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.shard("benchmark-key/with-some-length")
	}
}

// TestClientIdleTTLEvictsOpportunistically pins the bounded client cache
// with a fake clock: entries idle past the TTL are swept as the shard is
// re-touched, at most once per TTL window, and in-flight entries survive.
func TestClientIdleTTLEvictsOpportunistically(t *testing.T) {
	t.Parallel()
	now := time.Unix(1000, 0)
	s := &ObjectStore{
		shards:  make([]storeShard, 1),
		idleTTL: time.Minute,
		now:     func() time.Time { return now },
	}
	s.shards[0].clients = map[string]*clientEntry{
		"idle":     {lastUse: now.Add(-2 * time.Minute)},
		"fresh":    {lastUse: now.Add(-time.Second)},
		"inflight": {lastUse: now.Add(-time.Hour), inflight: 1},
	}
	s.shards[0].recons = map[string]*reconEntry{
		"idle": {lastUse: now.Add(-2 * time.Minute)},
	}

	sh := &s.shards[0]
	sh.mu.Lock()
	s.sweepLocked(sh, now)
	sh.mu.Unlock()
	if _, ok := sh.clients["idle"]; ok {
		t.Fatal("idle client survived the sweep")
	}
	if _, ok := sh.recons["idle"]; ok {
		t.Fatal("idle reconfigurer survived the sweep")
	}
	if _, ok := sh.clients["fresh"]; !ok {
		t.Fatal("fresh client evicted")
	}
	if _, ok := sh.clients["inflight"]; !ok {
		t.Fatal("in-flight client evicted — tag-uniqueness guard broken")
	}

	// The sweep is amortized: within the same TTL window another pass is a
	// no-op even for newly idle entries.
	sh.clients["idle2"] = &clientEntry{lastUse: now.Add(-2 * time.Minute)}
	sh.mu.Lock()
	s.sweepLocked(sh, now.Add(time.Second))
	sh.mu.Unlock()
	if _, ok := sh.clients["idle2"]; !ok {
		t.Fatal("second sweep ran inside the same TTL window")
	}
	// Past the window it evicts again.
	now = now.Add(2 * time.Minute)
	sh.mu.Lock()
	s.sweepLocked(sh, now)
	sh.mu.Unlock()
	if _, ok := sh.clients["idle2"]; ok {
		t.Fatal("idle client survived the next-window sweep")
	}
}

// TestReconfigureKeyReusesCachedReconfigurer pins the per-key reconfigurer
// cache that back-to-back manual moves rely on: repeated ReconfigureKey
// calls on one key must reuse the same cached *Reconfigurer (no per-call
// setup, and — more importantly — never a second live consensus proposer
// under the derived identity), and the cache stays bounded through the
// idle-TTL/EvictIdle machinery.
func TestReconfigureKeyReusesCachedReconfigurer(t *testing.T) {
	t.Parallel()
	servers := []ProcessID{"rc-s1", "rc-s2", "rc-s3", "rc-s4", "rc-s5"}
	root := Config{ID: "rc/root", Algorithm: ABD, Servers: servers[:3]}
	cluster, err := NewCluster(root, NewSimNetwork(), servers...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	store, err := NewObjectStore(cluster, Config{Algorithm: ABD, Servers: servers[:3]})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := store.Put(ctx, "k", Value("v0")); err != nil {
		t.Fatal(err)
	}

	reconFor := func(key string) *Reconfigurer {
		sh := store.shard(key)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		e, ok := sh.recons[key]
		if !ok {
			return nil
		}
		if e.inflight != 0 {
			t.Fatalf("reconfigurer inflight = %d after Reconfig returned", e.inflight)
		}
		return e.recon
	}

	walk := func(n int) {
		next := Config{
			ID:        ConfigID(fmt.Sprintf("store/k/walk%d", n)),
			Algorithm: TREAS, Servers: servers, K: 3, Delta: 8,
		}
		if err := store.ReconfigureKey(ctx, "k", next, ReconOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	walk(1)
	first := reconFor("k")
	if first == nil {
		t.Fatal("no cached reconfigurer after first ReconfigureKey")
	}
	walk(2)
	walk(3)
	if again := reconFor("k"); again != first {
		t.Fatal("ReconfigureKey rebuilt the reconfigurer instead of reusing the cache")
	}
	if v, err := store.Get(ctx, "k"); err != nil || string(v) != "v0" {
		t.Fatalf("value after walks = %q, %v", v, err)
	}

	// The cache is bounded: an explicit eviction drops the idle entry, and
	// the next reconfiguration transparently rebuilds a fresh one.
	if n := store.EvictIdle(0); n == 0 {
		t.Fatal("EvictIdle dropped nothing")
	}
	if reconFor("k") != nil {
		t.Fatal("reconfigurer survived EvictIdle(0)")
	}
	walk(4)
	if rebuilt := reconFor("k"); rebuilt == nil || rebuilt == first {
		t.Fatal("post-eviction walk did not rebuild a fresh reconfigurer")
	}
}
