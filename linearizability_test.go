package ares_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	ares "github.com/ares-storage/ares"
	"github.com/ares-storage/ares/internal/history"
)

// linScenario describes one randomized linearizability soak.
type linScenario struct {
	name     string
	initial  ares.Config
	chain    []ares.Config
	writers  int
	readers  int
	crash    int // servers of the initial configuration to crash
	direct   bool
	seed     int64
	duration time.Duration
}

// runLinScenario drives concurrent clients against a cluster under the
// scenario's churn and checks the recorded history for atomicity.
func runLinScenario(t *testing.T, sc linScenario) {
	t.Helper()
	net := ares.NewSimNetwork(ares.WithDelayRange(0, time.Millisecond), ares.WithSeed(sc.seed))
	cluster, err := ares.NewCluster(sc.initial, net)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	for _, c := range sc.chain {
		for _, s := range c.Servers {
			cluster.AddHost(s)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	rec := history.NewRecorder()
	stop := make(chan struct{})
	var wg sync.WaitGroup

	for i := 0; i < sc.writers; i++ {
		id := ares.ProcessID(fmt.Sprintf("w%d", i))
		client, err := cluster.NewClient(id)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(id ares.ProcessID, client *ares.Client) {
			defer wg.Done()
			for seq := 0; ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				v := ares.Value(fmt.Sprintf("%s/%d", id, seq))
				p := rec.BeginWrite(id, v)
				tg, err := client.Write(ctx, v)
				if err != nil {
					p.Fail() // retained as incomplete: the write may have landed
					if ctx.Err() == nil {
						t.Errorf("%s write: %v", id, err)
					}
					return
				}
				p.Done(tg, v)
			}
		}(id, client)
	}
	for i := 0; i < sc.readers; i++ {
		id := ares.ProcessID(fmt.Sprintf("r%d", i))
		client, err := cluster.NewClient(id)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(id ares.ProcessID, client *ares.Client) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				p := rec.BeginRead(id)
				pair, err := client.Read(ctx)
				if err != nil {
					p.Fail()
					if ctx.Err() == nil {
						t.Errorf("%s read: %v", id, err)
					}
					return
				}
				p.Done(pair.Tag, pair.Value)
			}
		}(id, client)
	}

	// Churn: crashes then reconfigurations, spread over the run.
	for i := 0; i < sc.crash; i++ {
		time.Sleep(sc.duration / 4)
		net.Crash(sc.initial.Servers[len(sc.initial.Servers)-1-i])
	}
	if len(sc.chain) > 0 {
		g, err := cluster.NewReconfigurer("g1", ares.ReconOptions{DirectTransfer: sc.direct})
		if err != nil {
			t.Fatal(err)
		}
		for _, next := range sc.chain {
			time.Sleep(sc.duration / time.Duration(len(sc.chain)+1))
			if _, err := g.Reconfig(ctx, next); err != nil {
				t.Fatalf("reconfig to %s: %v", next.ID, err)
			}
		}
	}
	time.Sleep(sc.duration / 4)
	close(stop)
	wg.Wait()

	ops := rec.Ops()
	if len(ops) < 5 {
		t.Fatalf("only %d operations recorded", len(ops))
	}
	if violations := history.Check(ops); len(violations) > 0 {
		for i, v := range violations {
			if i >= 3 {
				break
			}
			t.Error(v)
		}
		t.Fatalf("%d atomicity violations in %d ops (seed %d)", len(violations), len(ops), sc.seed)
	}
	rep := history.Verify(ops, history.CheckOptions{})
	if !rep.Linearizable {
		for i, v := range rep.Violations {
			if i >= 3 {
				break
			}
			t.Error(v)
		}
		t.Fatalf("%s: history of %d ops not linearizable by value (%s, seed %d)", sc.name, len(ops), rep.Method, sc.seed)
	}
	t.Logf("%s: %d atomic operations, value-checked via %s (seed %d)", sc.name, len(ops), rep.Method, sc.seed)
}

// TestLinearizabilityMatrix soaks a grid of deployments and churn patterns.
func TestLinearizabilityMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("soak matrix")
	}
	t.Parallel()
	scenarios := []linScenario{
		{
			name:    "abd-static",
			initial: abdCfg("c0", "lm-a", 5),
			writers: 3, readers: 3,
			seed: 1, duration: 400 * time.Millisecond,
		},
		{
			name:    "treas-static-crash",
			initial: treasCfg("c0", "lm-b", 5, 3, 8),
			writers: 2, readers: 3, crash: 1,
			seed: 2, duration: 400 * time.Millisecond,
		},
		{
			name:    "treas-recon-direct",
			initial: treasCfg("c0", "lm-c", 5, 3, 8),
			chain: []ares.Config{
				treasCfg("c1", "lm-c1", 5, 3, 8),
				treasCfg("c2", "lm-c2", 7, 5, 8),
			},
			writers: 2, readers: 2, direct: true,
			seed: 3, duration: 600 * time.Millisecond,
		},
		{
			name:    "mixed-algorithms",
			initial: abdCfg("c0", "lm-d", 3),
			chain: []ares.Config{
				treasCfg("c1", "lm-d1", 5, 3, 8),
				abdCfg("c2", "lm-d2", 3),
			},
			writers: 3, readers: 2,
			seed: 4, duration: 600 * time.Millisecond,
		},
		{
			name:    "many-writers-small-delta",
			initial: treasCfg("c0", "lm-e", 5, 3, 16),
			writers: 6, readers: 2,
			seed: 5, duration: 400 * time.Millisecond,
		},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			runLinScenario(t, sc)
		})
	}
}

// TestStoreLinearizabilityMultiKeySoak is the ObjectStore end-to-end safety
// test: concurrent writers and readers over several keys of one sharded
// store, a per-key reconfiguration moving one key to fresh servers, and a
// server crash (within every key's fault bound) mid-run. Each key is an
// independent register, so each key's recorded history must independently
// satisfy atomicity (A1–A3).
func TestStoreLinearizabilityMultiKeySoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	t.Parallel()
	template := treasCfg("", "smk", 5, 3, 8)
	root := template
	root.ID = "smk/root"
	net := ares.NewSimNetwork(ares.WithDelayRange(0, time.Millisecond), ares.WithSeed(21))
	cluster, err := ares.NewCluster(root, net)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	store, err := ares.NewObjectStore(cluster, template, ares.WithShardCount(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	keys := []string{"alpha", "beta", "gamma", "delta"}
	recorders := make(map[string]*history.Recorder, len(keys))
	for _, k := range keys {
		recorders[k] = history.NewRecorder()
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Two writers and two readers per key; writes on one key funnel through
	// that key's pooled client, which serializes them under unique tags.
	for _, key := range keys {
		key := key
		rec := recorders[key]
		for i := 0; i < 2; i++ {
			id := ares.ProcessID(fmt.Sprintf("soak-w%d/%s", i, key))
			wg.Add(1)
			go func(id ares.ProcessID) {
				defer wg.Done()
				for seq := 0; ; seq++ {
					select {
					case <-stop:
						return
					default:
					}
					v := ares.Value(fmt.Sprintf("%s/%d", id, seq))
					p := rec.BeginWrite(id, v)
					tg, err := store.WriteKey(ctx, key, v)
					if err != nil {
						p.Fail()
						if ctx.Err() == nil {
							t.Errorf("%s write: %v", id, err)
						}
						return
					}
					p.Done(tg, v)
				}
			}(id)
		}
		for i := 0; i < 2; i++ {
			id := ares.ProcessID(fmt.Sprintf("soak-r%d/%s", i, key))
			wg.Add(1)
			go func(id ares.ProcessID) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					p := rec.BeginRead(id)
					pair, err := store.ReadKey(ctx, key)
					if err != nil {
						p.Fail()
						if ctx.Err() == nil {
							t.Errorf("%s read: %v", id, err)
						}
						return
					}
					p.Done(pair.Tag, pair.Value)
				}
			}(id)
		}
	}

	// Churn: move one key onto fresh servers mid-run, then crash one of the
	// template servers — f = (5-3)/2 = 1 crash is tolerated by every key
	// still on the template set, and "alpha" has already left it.
	time.Sleep(150 * time.Millisecond)
	next := treasCfg("store/alpha/c1", "smk-n", 5, 3, 8)
	if err := store.ReconfigureKey(ctx, "alpha", next, ares.ReconOptions{DirectTransfer: true}); err != nil {
		t.Fatalf("per-key reconfiguration: %v", err)
	}
	time.Sleep(150 * time.Millisecond)
	net.Crash(template.Servers[len(template.Servers)-1])
	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()

	totalOps := 0
	for _, key := range keys {
		ops := recorders[key].Ops()
		totalOps += len(ops)
		if len(ops) < 5 {
			t.Errorf("key %s: only %d operations recorded", key, len(ops))
			continue
		}
		if violations := history.Check(ops); len(violations) > 0 {
			for i, v := range violations {
				if i >= 3 {
					break
				}
				t.Errorf("key %s: %v", key, v)
			}
			t.Errorf("key %s: %d atomicity violations in %d ops", key, len(violations), len(ops))
		}
		// Each key is an independent register, so the value-based check is
		// per-key partitioned: every key's history must independently
		// linearize.
		if rep := history.Verify(ops, history.CheckOptions{}); !rep.Linearizable {
			for i, v := range rep.Violations {
				if i >= 3 {
					break
				}
				t.Errorf("key %s: %v", key, v)
			}
			t.Errorf("key %s: not linearizable by value (%s)", key, rep.Method)
		}
	}
	t.Logf("multi-key soak: %d atomic operations across %d keys", totalOps, len(keys))
}

// TestConcurrentWritersOverPublicAPI drives two public clients writing
// concurrently for a fixed window and checks both make progress.
func TestConcurrentWritersOverPublicAPI(t *testing.T) {
	t.Parallel()
	c0 := treasCfg("c0", "wd", 5, 3, 8)
	cluster, err := ares.NewCluster(c0, ares.NewSimNetwork())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	ctx := context.Background()
	w1, err := cluster.NewClient("w1")
	if err != nil {
		t.Fatal(err)
	}
	w2, err := cluster.NewClient("w2")
	if err != nil {
		t.Fatal(err)
	}
	_ = ctx
	// Drive both clients concurrently for a fixed window.
	stopAt := time.Now().Add(200 * time.Millisecond)
	var wg sync.WaitGroup
	var ops [2]int
	for i, c := range []*ares.Client{w1, w2} {
		i, c := i, c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stopAt) {
				if err := c.WriteValue(context.Background(), ares.Value("x")); err != nil {
					t.Error(err)
					return
				}
				ops[i]++
			}
		}()
	}
	wg.Wait()
	if ops[0] == 0 || ops[1] == 0 {
		t.Fatalf("ops = %v", ops)
	}
}
