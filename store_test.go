package ares_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	ares "github.com/ares-storage/ares"
)

func storeFixture(t *testing.T) (*ares.ObjectStore, *ares.Cluster, []ares.ProcessID) {
	t.Helper()
	servers := []ares.ProcessID{"os-s1", "os-s2", "os-s3", "os-s4", "os-s5"}
	root := ares.Config{ID: "os/root", Algorithm: ares.ABD, Servers: servers[:3]}
	cluster, err := ares.NewCluster(root, ares.NewSimNetwork(), servers...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	store, err := ares.NewObjectStore(cluster, ares.Config{
		Algorithm: ares.TREAS,
		Servers:   servers,
		K:         3,
		Delta:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return store, cluster, servers
}

func TestObjectStorePutGet(t *testing.T) {
	t.Parallel()
	store, _, _ := storeFixture(t)
	ctx := context.Background()
	if err := store.Put(ctx, "alpha", ares.Value("1")); err != nil {
		t.Fatal(err)
	}
	if err := store.Put(ctx, "beta", ares.Value("2")); err != nil {
		t.Fatal(err)
	}
	v, err := store.Get(ctx, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "1" {
		t.Fatalf("alpha = %q", v)
	}
	v, err = store.Get(ctx, "beta")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "2" {
		t.Fatalf("beta = %q", v)
	}
	// Unwritten key returns the initial value.
	v, err = store.Get(ctx, "ghost")
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 0 {
		t.Fatalf("ghost = %q", v)
	}
	if got := len(store.Keys()); got != 3 {
		t.Fatalf("Keys() has %d entries, want 3", got)
	}
}

func TestObjectStoreConcurrentKeys(t *testing.T) {
	t.Parallel()
	store, _, _ := storeFixture(t)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i%4)
			if err := store.Put(ctx, key, ares.Value(fmt.Sprintf("v%d", i))); err != nil {
				errs <- fmt.Errorf("put %s: %w", key, err)
				return
			}
			if _, err := store.Get(ctx, key); err != nil {
				errs <- fmt.Errorf("get %s: %w", key, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestObjectStoreReconfigureOneKey(t *testing.T) {
	t.Parallel()
	store, cluster, _ := storeFixture(t)
	ctx := context.Background()
	if err := store.Put(ctx, "movable", ares.Value("payload")); err != nil {
		t.Fatal(err)
	}
	if err := store.Put(ctx, "static", ares.Value("stays")); err != nil {
		t.Fatal(err)
	}

	next := ares.Config{
		ID:        "store/movable/c1",
		Algorithm: ares.TREAS,
		Servers:   []ares.ProcessID{"os-n1", "os-n2", "os-n3", "os-n4", "os-n5"},
		K:         3,
		Delta:     4,
	}
	for _, s := range next.Servers {
		cluster.AddHost(s)
	}
	if err := store.ReconfigureKey(ctx, "movable", next, ares.ReconOptions{DirectTransfer: true}); err != nil {
		t.Fatal(err)
	}

	v, err := store.Get(ctx, "movable")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "payload" {
		t.Fatalf("movable = %q after key reconfiguration", v)
	}
	// The other key is untouched.
	v, err = store.Get(ctx, "static")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "stays" {
		t.Fatalf("static = %q", v)
	}
}

func TestObjectStoreConcurrentFirstTouchSameKey(t *testing.T) {
	t.Parallel()
	store, _, _ := storeFixture(t)
	ctx := context.Background()
	const writers = 32
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for i := 0; i < writers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := store.Put(ctx, "hot", ares.Value(fmt.Sprintf("v%d", i))); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// All racers must have landed on one register.
	if keys := store.Keys(); len(keys) != 1 || keys[0] != "hot" {
		t.Fatalf("Keys() = %v after racing first-touch", keys)
	}
	v, err := store.Get(ctx, "hot")
	if err != nil {
		t.Fatal(err)
	}
	if len(v) < 2 || v[0] != 'v' {
		t.Fatalf("hot = %q, not one of the racers' values", v)
	}
}

func TestObjectStoreTaggedOperations(t *testing.T) {
	t.Parallel()
	store, _, _ := storeFixture(t)
	ctx := context.Background()
	tg, err := store.WriteKey(ctx, "tagged", ares.Value("one"))
	if err != nil {
		t.Fatal(err)
	}
	if tg == (ares.Tag{}) {
		t.Fatal("write returned the zero tag")
	}
	pair, err := store.ReadKey(ctx, "tagged")
	if err != nil {
		t.Fatal(err)
	}
	if pair.Tag != tg || string(pair.Value) != "one" {
		t.Fatalf("read %v/%q after write %v", pair.Tag, pair.Value, tg)
	}
	// A second write's tag strictly increases.
	tg2, err := store.WriteKey(ctx, "tagged", ares.Value("two"))
	if err != nil {
		t.Fatal(err)
	}
	if !tg.Less(tg2) {
		t.Fatalf("tags not monotonic: %v then %v", tg, tg2)
	}
}

func TestObjectStoreMultiGetMixedKeys(t *testing.T) {
	t.Parallel()
	store, _, _ := storeFixture(t)
	ctx := context.Background()
	if err := store.MultiPut(ctx, map[string]ares.Value{
		"written-1": ares.Value("a"),
		"written-2": ares.Value("b"),
	}); err != nil {
		t.Fatal(err)
	}
	// Mix of written, never-written, and duplicate keys.
	got, err := store.MultiGet(ctx, "written-1", "ghost-1", "written-2", "ghost-2", "written-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("MultiGet returned %d entries: %v", len(got), got)
	}
	if string(got["written-1"]) != "a" || string(got["written-2"]) != "b" {
		t.Fatalf("written keys = %q, %q", got["written-1"], got["written-2"])
	}
	for _, ghost := range []string{"ghost-1", "ghost-2"} {
		v, ok := got[ghost]
		if !ok {
			t.Fatalf("never-written key %q missing from results", ghost)
		}
		if len(v) != 0 {
			t.Fatalf("%s = %q, want initial empty value", ghost, v)
		}
	}
}

func TestObjectStoreMultiPutPartialFailure(t *testing.T) {
	t.Parallel()
	store, cluster, _ := storeFixture(t)
	ctx := context.Background()

	// Strand one key on its own 3-server ABD configuration, then crash two
	// of those servers: a majority quorum for that key is unreachable, while
	// every other key (on the healthy template servers) keeps working.
	doomedServers := []ares.ProcessID{"os-d1", "os-d2", "os-d3"}
	next := ares.Config{ID: "store/doomed/c1", Algorithm: ares.ABD, Servers: doomedServers}
	if err := store.Put(ctx, "doomed", ares.Value("before")); err != nil {
		t.Fatal(err)
	}
	if err := store.ReconfigureKey(ctx, "doomed", next, ares.ReconOptions{}); err != nil {
		t.Fatal(err)
	}
	cluster.Network().Crash("os-d1")
	cluster.Network().Crash("os-d2")

	opCtx, cancel := context.WithTimeout(ctx, 750*time.Millisecond)
	defer cancel()
	err := store.MultiPut(opCtx, map[string]ares.Value{
		"healthy-1": ares.Value("h1"),
		"doomed":    ares.Value("after"),
		"healthy-2": ares.Value("h2"),
	})
	var batchErr *ares.BatchError
	if !errors.As(err, &batchErr) {
		t.Fatalf("err = %v, want *ares.BatchError", err)
	}
	if len(batchErr.Failed) != 1 || batchErr.Failed[0].Key != "doomed" {
		t.Fatalf("failed keys = %+v, want exactly [doomed]", batchErr.Failed)
	}
	if batchErr.Failed[0].Err == nil || batchErr.Error() == "" {
		t.Fatalf("batch error lacks detail: %+v", batchErr)
	}
	// The healthy keys were durably written despite the partial failure.
	got, err := store.MultiGet(ctx, "healthy-1", "healthy-2")
	if err != nil {
		t.Fatal(err)
	}
	if string(got["healthy-1"]) != "h1" || string(got["healthy-2"]) != "h2" {
		t.Fatalf("healthy keys after partial failure = %v", got)
	}
}

func TestObjectStoreValidatesTemplate(t *testing.T) {
	t.Parallel()
	cluster, err := ares.NewCluster(ares.Config{
		ID: "c0", Algorithm: ares.ABD, Servers: []ares.ProcessID{"v-s1"},
	}, ares.NewSimNetwork())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	cases := map[string]ares.Config{
		"bogus-algorithm": {Algorithm: "bogus", Servers: []ares.ProcessID{"v-s1"}},
		"no-servers":      {Algorithm: ares.ABD},
		"treas-k-exceeds-n": {
			Algorithm: ares.TREAS,
			Servers:   []ares.ProcessID{"v-s1", "v-s2"},
			K:         5, Delta: 1,
		},
	}
	for name, template := range cases {
		if _, err := ares.NewObjectStore(cluster, template); err == nil {
			t.Errorf("%s: invalid template accepted", name)
		}
	}
}

func TestRepairServerPublicAPI(t *testing.T) {
	t.Parallel()
	servers := []ares.ProcessID{"rp-s1", "rp-s2", "rp-s3", "rp-s4", "rp-s5"}
	c0 := ares.Config{ID: "c0", Algorithm: ares.TREAS, Servers: servers, K: 3, Delta: 2}
	net := ares.NewSimNetwork()
	cluster, err := ares.NewCluster(c0, net)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	ctx := context.Background()
	w, err := cluster.NewClient("w1")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteValue(ctx, ares.Value("repairable")); err != nil {
		t.Fatal(err)
	}
	// A healthy server repairs to zero installs — the public wrapper wires
	// through to the TREAS repair path (loss scenarios are covered in
	// internal/treas). The write returned at 4 of 5 acks, so wait for the
	// fifth put-data to land before asking that server what it holds.
	net.Quiesce()
	n, err := ares.RepairServer(ctx, net.Client("fixer"), c0, servers[0])
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("repaired %d on healthy server", n)
	}
}
