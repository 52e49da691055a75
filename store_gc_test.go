package ares_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	ares "github.com/ares-storage/ares"
)

// Bounded-client-cache and lifecycle-GC tests against the public ObjectStore
// surface.

func gcStoreFixture(t *testing.T, name string, opts ...ares.StoreOption) (*ares.ObjectStore, *ares.Cluster, []ares.ProcessID) {
	t.Helper()
	var servers []ares.ProcessID
	for i := 1; i <= 5; i++ {
		servers = append(servers, ares.ProcessID(fmt.Sprintf("%s-s%d", name, i)))
	}
	root := ares.Config{ID: ares.ConfigID(name + "/root"), Algorithm: ares.ABD, Servers: servers}
	cluster, err := ares.NewCluster(root, ares.NewSimNetwork())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	template := ares.Config{Algorithm: ares.TREAS, K: 3, Delta: 4, Servers: servers}
	store, err := ares.NewObjectStore(cluster, template, append([]ares.StoreOption{ares.WithStoreName(name)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return store, cluster, servers
}

// TestObjectStoreEvictAndForget pins the explicit halves of the bounded
// client cache: ClientCount tracks instantiated clients, EvictIdle(0) drops
// everything idle, Forget drops one key, and a re-touched key works again.
func TestObjectStoreEvictAndForget(t *testing.T) {
	t.Parallel()
	store, _, _ := gcStoreFixture(t, "evict")
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		if err := store.Put(ctx, fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if got := store.ClientCount(); got != 8 {
		t.Fatalf("ClientCount = %d after touching 8 keys, want 8", got)
	}
	if !store.Forget("k0") {
		t.Fatal("Forget of a cached key reported nothing dropped")
	}
	if store.Forget("k0") {
		t.Fatal("second Forget reported a drop")
	}
	if got := store.ClientCount(); got != 7 {
		t.Fatalf("ClientCount = %d after Forget, want 7", got)
	}
	if evicted := store.EvictIdle(0); evicted != 7 {
		t.Fatalf("EvictIdle(0) dropped %d, want 7", evicted)
	}
	if got := store.ClientCount(); got != 0 {
		t.Fatalf("ClientCount = %d after EvictIdle(0), want 0", got)
	}
	// Evicted keys rebuild transparently and still see their data.
	v, err := store.Get(ctx, "k3")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "v" {
		t.Fatalf("post-eviction read = %q, want %q", v, "v")
	}
}

// TestObjectStoreEvictionSurvivesReconfigChurn is the end-to-end lifecycle
// story: a key's chain walks several configurations, its client is evicted
// (the lagging-client shape), and the rebuilt client must recover through
// the retired initial configuration's archive — reading the latest value,
// never rematerialized v₀ state — while the cluster's retained server state
// stays O(live configs).
func TestObjectStoreEvictionSurvivesReconfigChurn(t *testing.T) {
	t.Parallel()
	store, cluster, servers := gcStoreFixture(t, "churnstore")
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const key, walks = "hot", 6
	want := []byte("latest-value")
	if err := store.Put(ctx, key, want); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= walks; i++ {
		next := ares.Config{
			ID:      ares.ConfigID(fmt.Sprintf("churnstore/%s/c%d", key, i)),
			Servers: servers,
		}
		if i%2 == 0 {
			next.Algorithm = ares.TREAS
			next.K = 3
			next.Delta = 4
		} else {
			next.Algorithm = ares.ABD
		}
		if err := store.ReconfigureKey(ctx, key, next, ares.ReconOptions{}); err != nil {
			t.Fatalf("walk %d: %v", i, err)
		}
	}
	if retired := cluster.RetiredStates(); retired == 0 {
		t.Fatal("no server state retired across the walks")
	}

	// Evict the key's client and reconfigurer: the next reader starts from
	// the template-derived (and long-retired) initial configuration.
	if evicted := store.EvictIdle(0); evicted == 0 {
		t.Fatal("nothing evicted")
	}
	got, err := store.Get(ctx, key)
	if err != nil {
		t.Fatalf("post-churn, post-eviction read: %v", err)
	}
	if string(got) != string(want) {
		t.Fatalf("post-churn read = %q, want %q (v0/stale data from a retired configuration)", got, want)
	}

	// Retained server state for the key: live window, not one entry per walk.
	deadline := time.Now().Add(5 * time.Second)
	states := cluster.MaterializedStates()
	bound := 3 * len(servers)
	for states > bound && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		states = cluster.MaterializedStates()
	}
	if states > bound {
		t.Fatalf("retained %d states after %d walks, want ≤ %d", states, walks, bound)
	}

	// The key remains fully writable through the rebuilt client.
	if err := store.Put(ctx, key, []byte("written-after-churn")); err != nil {
		t.Fatal(err)
	}
	got, err = store.Get(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "written-after-churn" {
		t.Fatalf("read-your-write after churn = %q", got)
	}
}

// TestReconfigChurnCensus walks 100 keys through 10 reconfigurations each
// (TREAS [5,3] ↔ ABD on one set of 5 servers) and takes a census: the
// lifecycle GC must retire superseded state, keep at most 60 live (key,
// config) states per key once finalization settles (live window ≈ tail DAP +
// tail pointer across 5 servers, ~10; without GC the 11-config chain retains
// 100+), and leave the post-GC heap per key within 1.5× that of a store that
// never reconfigured. Not parallel, so no concurrent test moves the heap.
func TestReconfigChurnCensus(t *testing.T) {
	const (
		keys, walks, workers = 100, 10, 8
		maxLivePerKey        = 60
		maxHeapRatio         = 1.5
	)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	value := make(ares.Value, 128)
	// forEachKey runs fn for every key on workers goroutines.
	forEachKey := func(fn func(key string) error) {
		t.Helper()
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				var err error
				for i := w; i < keys && err == nil; i += workers {
					err = fn(fmt.Sprintf("ck-%04d", i))
				}
				errs <- err
			}(w)
		}
		for w := 0; w < workers; w++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
	}
	heapAlloc := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}

	// Baseline: the same deployment, every key written once, no churn.
	base, _, _ := gcStoreFixture(t, "censusbase")
	start := heapAlloc()
	forEachKey(func(key string) error { return base.Put(ctx, key, value) })
	baseline := float64(heapAlloc()-start) / keys

	store, cluster, servers := gcStoreFixture(t, "census")
	start = heapAlloc()
	forEachKey(func(key string) error { return store.Put(ctx, key, value) })
	forEachKey(func(key string) error {
		for i := 1; i <= walks; i++ {
			next := ares.Config{ID: ares.ConfigID(fmt.Sprintf("census/%s/c%d", key, i)), Servers: servers}
			if i%2 == 0 {
				next.Algorithm = ares.ABD
			} else {
				next.Algorithm, next.K, next.Delta = ares.TREAS, 3, 32
			}
			if err := store.ReconfigureKey(ctx, key, next, ares.ReconOptions{}); err != nil {
				return fmt.Errorf("walk %d of %s: %w", i, key, err)
			}
		}
		return nil
	})
	// One read per key goes through the retired-configuration redirect.
	forEachKey(func(key string) error {
		_, err := store.Get(ctx, key)
		return err
	})

	deadline := time.Now().Add(3 * time.Second)
	live := cluster.MaterializedStates()
	for live > maxLivePerKey*keys && time.Now().Before(deadline) {
		time.Sleep(25 * time.Millisecond)
		live = cluster.MaterializedStates()
	}
	retired := cluster.RetiredStates()
	// Each idle per-key client pins its whole configuration sequence; evict
	// them so the census weighs server state and tombstones only.
	evicted := store.EvictIdle(0)
	heap := float64(heapAlloc()-start) / keys
	t.Logf("live %d (%.1f/key), retired %d, evicted %d, heap %.0f → %.0f B/key (%.2fx)",
		live, float64(live)/keys, retired, evicted, baseline, heap, heap/baseline)

	if retired == 0 {
		t.Errorf("%d walks completed but no state was retired: the lifecycle GC never fired", keys*walks)
	}
	if perKey := float64(live) / keys; perKey > maxLivePerKey {
		t.Errorf("%.1f live states per key after %d walks, want ≤ %d: retained state grows with walks", perKey, walks, maxLivePerKey)
	}
	if baseline > 0 && heap > maxHeapRatio*baseline {
		t.Errorf("post-GC heap %.0f B/key is %.2fx the no-churn %.0f B/key, want ≤ %.1fx", heap, heap/baseline, baseline, maxHeapRatio)
	}
}

// TestObjectStoreIdleTTLBoundsCache pins the TTL path end to end: with a
// tiny TTL, touching fresh keys sweeps cold ones, so the cache tracks the
// working set instead of every key ever touched.
func TestObjectStoreIdleTTLBoundsCache(t *testing.T) {
	t.Parallel()
	store, _, _ := gcStoreFixture(t, "ttl", ares.WithClientIdleTTL(time.Millisecond), ares.WithShardCount(1))
	ctx := context.Background()
	if err := store.Put(ctx, "cold", []byte("v")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	// Touching another key in the same shard sweeps the cold entry.
	if err := store.Put(ctx, "warm", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got := store.ClientCount(); got > 1+1 { // warm client (+ its in-flight sibling at most)
		t.Fatalf("ClientCount = %d with 1ms TTL, want ≤ 2", got)
	}
	// The swept key still reads correctly through a rebuilt client.
	v, err := store.Get(ctx, "cold")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "v" {
		t.Fatalf("swept key read = %q, want %q", v, "v")
	}
}
