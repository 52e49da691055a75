// Top-level ObjectStore benchmarks: batched against sequential multi-key
// access and concurrent first touch over a latency-bearing simnet. The
// paper's experiments are BenchmarkPaper in internal/experiments.
package ares_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	ares "github.com/ares-storage/ares"
)

// benchStore deploys a sharded ObjectStore over a latency-bearing simnet
// with nKeys registers pre-instantiated, so the benchmarks measure the
// steady-state data path rather than first-touch installation.
func benchStore(b *testing.B, prefix string, nKeys int) (*ares.ObjectStore, []string) {
	b.Helper()
	template := ares.Config{Algorithm: ares.TREAS, K: 3, Delta: 4}
	for i := 1; i <= 5; i++ {
		template.Servers = append(template.Servers, ares.ProcessID(fmt.Sprintf("%s-s%d", prefix, i)))
	}
	root := template
	root.ID = ares.ConfigID(prefix + "/root")
	net := ares.NewSimNetwork(ares.WithDelayRange(200*time.Microsecond, 500*time.Microsecond), ares.WithSeed(1))
	cluster, err := ares.NewCluster(root, net)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cluster.Close)
	store, err := ares.NewObjectStore(cluster, template)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	keys := make([]string, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench-key-%02d", i)
		if err := store.Put(ctx, keys[i], ares.Value(fmt.Sprintf("v%d", i))); err != nil {
			b.Fatal(err)
		}
	}
	return store, keys
}

// BenchmarkStoreMultiGet compares reading 16 keys through one batched
// MultiGet against an equivalent sequential Get loop. The batched fan-out
// overlaps the per-key quorum round trips, so it should win by well over 2×
// on a latency-bearing network.
func BenchmarkStoreMultiGet(b *testing.B) {
	const nKeys = 16
	ctx := context.Background()
	b.Run("sequential", func(b *testing.B) {
		store, keys := benchStore(b, "bmg-seq", nKeys)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, k := range keys {
				if _, err := store.Get(ctx, k); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		store, keys := benchStore(b, "bmg-bat", nKeys)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			got, err := store.MultiGet(ctx, keys...)
			if err != nil {
				b.Fatal(err)
			}
			if len(got) != nKeys {
				b.Fatalf("MultiGet returned %d/%d keys", len(got), nKeys)
			}
		}
	})
}

// BenchmarkStoreMultiPut compares writing 16 keys through one batched
// MultiPut against an equivalent sequential Put loop.
func BenchmarkStoreMultiPut(b *testing.B) {
	const nKeys = 16
	ctx := context.Background()
	v := make(ares.Value, 1024)
	b.Run("sequential", func(b *testing.B) {
		store, keys := benchStore(b, "bmp-seq", nKeys)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, k := range keys {
				if err := store.Put(ctx, k, v); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		store, keys := benchStore(b, "bmp-bat", nKeys)
		kv := make(map[string]ares.Value, nKeys)
		for _, k := range keys {
			kv[k] = v
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := store.MultiPut(ctx, kv); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStoreShardedFirstTouch measures concurrent first-touch
// instantiation across distinct keys — the path the sharded metadata locks
// parallelize.
func BenchmarkStoreShardedFirstTouch(b *testing.B) {
	ctx := context.Background()
	var round int
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		store, _ := benchStore(b, fmt.Sprintf("bft-%d", round), 0)
		round++
		b.StartTimer()
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := store.Put(ctx, fmt.Sprintf("ft-key-%02d", g), ares.Value("x")); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
	}
}
