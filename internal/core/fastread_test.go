package core

// Tests for the one-round read fast path: a quiescent key costs one data
// round (get-data only, write-back skipped), while a read that observes a
// tag not yet propagated to a full quorum — the concurrent-write window —
// still pays the put-data write-back. Round counts are read from the
// process-wide obs registry by metric name — the same names the bench
// harness scrapes, so renaming or moving a counter fails here first.
//
// None of these tests are parallel: the read-round counters are process-wide.

import (
	"context"
	"testing"

	"github.com/ares-storage/ares/internal/cfg"
	"github.com/ares-storage/ares/internal/obs"
	"github.com/ares-storage/ares/internal/transport"
	"github.com/ares-storage/ares/internal/types"
)

// readRoundDeltas runs one read and returns the (ops, rounds, fastPaths)
// counter deltas it produced, failing the test on read error or value
// mismatch.
func readRoundDeltas(t *testing.T, r *Client, want string) (ops, rounds, fast int64) {
	t.Helper()
	before := obs.Default.Snapshot().Counters
	pair, err := r.Read(context.Background())
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if string(pair.Value) != want {
		t.Fatalf("read %q, want %q", pair.Value, want)
	}
	after := obs.Default.Snapshot().Counters
	delta := func(name string) int64 {
		if _, ok := after[name]; !ok {
			t.Fatalf("counter %s is not registered", name)
		}
		return after[name] - before[name]
	}
	return delta("ares_client_read_ops_total"),
		delta("ares_client_read_rounds_total"),
		delta("ares_client_read_fastpaths_total")
}

// TestReadFastPathQuiescent pins the tentpole's headline: once a write has
// settled on every server, a read is one data round — the get-data quorum
// unanimously holds the max tag, so the put-data write-back is skipped and
// ares_client_read_fastpaths_total advances.
func TestReadFastPathQuiescent(t *testing.T) {
	// Not parallel: asserts on process-wide read-round counters.
	for _, alg := range []struct {
		name string
		c0   cfg.Configuration
	}{
		{"abd", abdConfig("c0", "fpq-a", 3)},
		{"treas", treasConfig("c0", "fpq-t", 5, 3, 2)},
	} {
		alg := alg
		t.Run(alg.name, func(t *testing.T) {
			net := transport.NewSimnet()
			cluster, err := NewCluster(alg.c0, net)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(cluster.Close)
			w, err := cluster.NewClient("w1")
			if err != nil {
				t.Fatal(err)
			}
			r, err := cluster.NewClient("r1")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Write(context.Background(), types.Value("settled")); err != nil {
				t.Fatal(err)
			}
			// Let the write's straggler put-data deliveries (beyond its
			// quorum) land, so every server holds the tag and any get-data
			// quorum confirms it.
			net.Quiesce()

			for i := 0; i < 3; i++ {
				ops, rounds, fast := readRoundDeltas(t, r, "settled")
				if ops != 1 || rounds != 1 || fast != 1 {
					t.Fatalf("quiescent read %d: ops/rounds/fastpaths deltas = %d/%d/%d, want 1/1/1",
						i, ops, rounds, fast)
				}
			}
		})
	}
}

// TestReadWritesBackStaleTag pins the guard rail of the fast path: a read
// whose quorum does NOT unanimously hold the max tag — here because a server
// was cut off from the writer, the deterministic image of the concurrent-
// write window — must still run the put-data write-back (2 rounds, no fast
// path). Once that write-back has repaired the quorum, the next read is one
// round again.
func TestReadWritesBackStaleTag(t *testing.T) {
	// Not parallel: asserts on process-wide read-round counters.
	c0 := abdConfig("c0", "fps", 3)
	s1, s3 := c0.Servers[0], c0.Servers[2]
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
	r, err := cluster.NewClient("r1")
	if err != nil {
		t.Fatal(err)
	}

	// The writer cannot reach s3: its put-data lands only on {s1, s2},
	// leaving s3 stale. The reader cannot reach s1: its quorum is forced to
	// {s2, s3}, where only s2 holds the new tag.
	net.BlockLink("w1", s3)
	net.BlockLink("r1", s1)
	if _, err := w.Write(context.Background(), types.Value("half-propagated")); err != nil {
		t.Fatal(err)
	}

	// First read: max tag held by 1 of the 2-server quorum → not confirmed →
	// get-data plus put-data write-back (which repairs s3 through the
	// reader's reachable servers).
	ops, rounds, fast := readRoundDeltas(t, r, "half-propagated")
	if ops != 1 || rounds != 2 || fast != 0 {
		t.Fatalf("stale read: ops/rounds/fastpaths deltas = %d/%d/%d, want 1/2/0", ops, rounds, fast)
	}

	// Second read: the write-back put the tag on both of {s2, s3}, so the
	// same forced quorum now confirms it — one round, fast path.
	ops, rounds, fast = readRoundDeltas(t, r, "half-propagated")
	if ops != 1 || rounds != 1 || fast != 1 {
		t.Fatalf("repaired read: ops/rounds/fastpaths deltas = %d/%d/%d, want 1/1/1", ops, rounds, fast)
	}
}

// TestReadWritesBackStaleTagTREAS is the erasure-coded analogue: n=5, k=3,
// q=⌈(n+k)/2⌉=4. The writer misses s5, so only 3 of the reader's 4-server
// quorum carry the coded element — decodable (3 ≥ k) but not confirmed
// (3 < q), forcing the write-back; after it, the same quorum confirms.
func TestReadWritesBackStaleTagTREAS(t *testing.T) {
	// Not parallel: asserts on process-wide read-round counters.
	c0 := treasConfig("c0", "fpt", 5, 3, 2)
	s1, s5 := c0.Servers[0], c0.Servers[4]
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
	r, err := cluster.NewClient("r1")
	if err != nil {
		t.Fatal(err)
	}

	net.BlockLink("w1", s5)
	net.BlockLink("r1", s1)
	if _, err := w.Write(context.Background(), types.Value("coded-stale")); err != nil {
		t.Fatal(err)
	}

	ops, rounds, fast := readRoundDeltas(t, r, "coded-stale")
	if ops != 1 || rounds != 2 || fast != 0 {
		t.Fatalf("stale coded read: ops/rounds/fastpaths deltas = %d/%d/%d, want 1/2/0", ops, rounds, fast)
	}
	ops, rounds, fast = readRoundDeltas(t, r, "coded-stale")
	if ops != 1 || rounds != 1 || fast != 1 {
		t.Fatalf("repaired coded read: ops/rounds/fastpaths deltas = %d/%d/%d, want 1/1/1", ops, rounds, fast)
	}
}
