package core

import (
	"context"
	"testing"
	"time"

	"github.com/ares-storage/ares/internal/recon"
	"github.com/ares-storage/ares/internal/transport"
	"github.com/ares-storage/ares/internal/types"
)

func TestOperationsBlockDuringPartitionAndResume(t *testing.T) {
	t.Parallel()
	c0 := treasConfig("c0", "part", 5, 3, 2)
	net := transport.NewSimnet()
	cluster, err := NewCluster(c0, net)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	w, err := cluster.NewClient("w1")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := w.Write(ctx, types.Value("before")); err != nil {
		t.Fatal(err)
	}

	// Partition the writer away from 2 servers: quorum ⌈(5+3)/2⌉ = 4 of 5
	// becomes unreachable (only 3 remain) and the write must block.
	for _, s := range c0.Servers[:2] {
		net.BlockLink("w1", s)
	}
	blockedCtx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
	if _, err := w.Write(blockedCtx, types.Value("during")); err == nil {
		cancel()
		t.Fatal("write succeeded without a reachable quorum")
	}
	cancel()

	// Heal the partition: operations resume and the register is consistent.
	for _, s := range c0.Servers[:2] {
		net.UnblockLink("w1", s)
	}
	if _, err := w.Write(ctx, types.Value("after")); err != nil {
		t.Fatalf("write after heal: %v", err)
	}
	r, err := cluster.NewClient("r1")
	if err != nil {
		t.Fatal(err)
	}
	pair, err := r.Read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if string(pair.Value) != "after" {
		t.Fatalf("read %q after heal", pair.Value)
	}
}

func TestReaderIsolatedFromOldConfigurationAfterRecon(t *testing.T) {
	t.Parallel()
	// After a finalized reconfiguration, a client partitioned from every OLD
	// server can still operate: read-config starts from its last finalized
	// configuration... which for a fresh client is c0. A client that already
	// observed c1 keeps working with c0 completely unreachable.
	c0 := abdConfig("c0", "iso0", 3)
	c1 := abdConfig("c1", "iso1", 3)
	net := transport.NewSimnet()
	cluster, err := NewCluster(c0, net)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	addHosts(cluster, c1)
	ctx := context.Background()

	w, err := cluster.NewClient("w1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(ctx, types.Value("v1")); err != nil {
		t.Fatal(err)
	}
	g, err := cluster.NewReconfigurer("g1", recon.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Reconfig(ctx, c1); err != nil {
		t.Fatal(err)
	}
	// Writer observes c1 by completing one operation.
	if _, err := w.Write(ctx, types.Value("v2")); err != nil {
		t.Fatal(err)
	}
	if w.Sequence().Mu() < 1 {
		t.Fatalf("writer has not finalized c1: %v", w.Sequence())
	}

	// Now the entire old configuration crashes. The writer, whose last
	// finalized configuration is c1, keeps operating.
	for _, s := range c0.Servers {
		net.Crash(s)
	}
	opCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if _, err := w.Write(opCtx, types.Value("v3")); err != nil {
		t.Fatalf("write with old configuration dead: %v", err)
	}
}

func TestCrashWithinBoundDuringReconfig(t *testing.T) {
	t.Parallel()
	// A server crash inside the old configuration's fault bound must not
	// prevent the reconfiguration (its quorums remain available).
	c0 := treasConfig("c0", "cr0", 5, 3, 2)
	c1 := treasConfig("c1", "cr1", 5, 3, 2)
	net := transport.NewSimnet()
	cluster, err := NewCluster(c0, net)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	addHosts(cluster, c1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	w, err := cluster.NewClient("w1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(ctx, types.Value("precious")); err != nil {
		t.Fatal(err)
	}
	net.Crash(c0.Servers[4]) // f = 1 for [5,3]

	g, err := cluster.NewReconfigurer("g1", recon.Options{DirectTransfer: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Reconfig(ctx, c1); err != nil {
		t.Fatalf("reconfig with crashed old server: %v", err)
	}
	r, err := cluster.NewClient("r1")
	if err != nil {
		t.Fatal(err)
	}
	pair, err := r.Read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if string(pair.Value) != "precious" {
		t.Fatalf("value lost: %q", pair.Value)
	}
}

func TestRemoteInstallerToleratesCrashedNewServer(t *testing.T) {
	t.Parallel()
	// One server of the NEW configuration is down. The installer settles
	// for a quorum and the reconfiguration still completes — the new
	// configuration starts life already running with f=1 consumed.
	c0 := treasConfig("c0", "ni0", 5, 3, 2)
	c1 := treasConfig("c1", "ni1", 5, 3, 2)
	net := transport.NewSimnet()
	cluster, err := NewCluster(c0, net)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	addHosts(cluster, c1)
	net.Crash(c1.Servers[4])

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	g, err := cluster.NewReconfigurer("g1", recon.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Reconfig(ctx, c1); err != nil {
		t.Fatalf("reconfig with one crashed new server: %v", err)
	}
	r, err := cluster.NewClient("r1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(ctx); err != nil {
		t.Fatalf("read in degraded new configuration: %v", err)
	}
}
