package core

import (
	"context"
	"testing"
	"time"

	"github.com/ares-storage/ares/internal/transport"
	"github.com/ares-storage/ares/internal/types"
)

func TestRetryPolicyGrowsToCap(t *testing.T) {
	t.Parallel()
	p := RetryPolicy{Base: time.Millisecond, Cap: 8 * time.Millisecond, Multiplier: 2}
	want := []time.Duration{
		1 * time.Millisecond, // attempt 0
		2 * time.Millisecond,
		4 * time.Millisecond,
		8 * time.Millisecond,
		8 * time.Millisecond, // capped
		8 * time.Millisecond,
	}
	for attempt, w := range want {
		if got := p.delayAt(attempt, 0); got != w {
			t.Errorf("attempt %d: delay %v, want %v", attempt, got, w)
		}
	}
}

func TestRetryPolicyJitterBounds(t *testing.T) {
	t.Parallel()
	p := RetryPolicy{Base: 4 * time.Millisecond, Cap: 64 * time.Millisecond, Multiplier: 2, Jitter: 0.5}
	for attempt := 0; attempt < 6; attempt++ {
		full := p.delayAt(attempt, 0)  // no jitter subtracted
		floor := p.delayAt(attempt, 1) // all jitter subtracted
		if want := full / 2; floor != want {
			t.Errorf("attempt %d: jitter floor %v, want %v", attempt, floor, want)
		}
		for _, frac := range []float64{0.1, 0.5, 0.9} {
			d := p.delayAt(attempt, frac)
			if d < floor || d > full {
				t.Errorf("attempt %d frac %v: delay %v outside [%v, %v]", attempt, frac, d, floor, full)
			}
		}
	}
}

func TestRetryPolicyDegenerateInputs(t *testing.T) {
	t.Parallel()
	// Multiplier below 1 means constant pacing; out-of-range jitter clamps.
	p := RetryPolicy{Base: 3 * time.Millisecond, Cap: 10 * time.Millisecond, Multiplier: 0.5, Jitter: 2}
	if got := p.delayAt(5, 0); got != 3*time.Millisecond {
		t.Errorf("constant pacing: delay %v, want 3ms", got)
	}
	if got := p.delayAt(5, 1); got != 0 {
		t.Errorf("full clamped jitter: delay %v, want 0", got)
	}
	// Zero cap leaves growth unbounded.
	p = RetryPolicy{Base: time.Millisecond, Multiplier: 2}
	if got := p.delayAt(10, 0); got != 1024*time.Millisecond {
		t.Errorf("uncapped growth: delay %v, want 1.024s", got)
	}
	// A zero Base falls back to the default instead of a busy loop.
	p = RetryPolicy{Cap: 32 * time.Millisecond}
	if got := p.delayAt(0, 0); got != DefaultRetryPolicy.Base {
		t.Errorf("zero base: delay %v, want default base %v", got, DefaultRetryPolicy.Base)
	}
}

// TestClientRetryPolicyConfigurable pins the wiring: SetRetryPolicy replaces
// the default pacing a client boots with.
func TestClientRetryPolicyConfigurable(t *testing.T) {
	t.Parallel()
	c0 := treasConfig("c0", "rp", 5, 3, 2)
	cluster, err := NewCluster(c0, transport.NewSimnet())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	r, err := cluster.NewClient("r1")
	if err != nil {
		t.Fatal(err)
	}
	if r.retry != DefaultRetryPolicy {
		t.Fatalf("boot policy %+v, want default %+v", r.retry, DefaultRetryPolicy)
	}
	custom := RetryPolicy{Base: 100 * time.Microsecond, Cap: time.Millisecond, Multiplier: 1.5, Jitter: 0.25}
	r.SetRetryPolicy(custom)
	if r.retry != custom {
		t.Fatalf("policy after SetRetryPolicy %+v, want %+v", r.retry, custom)
	}
}

// TestRemoteInstallerSettlesForServerQuorum crashes one server of a
// three-server configuration: the remaining majority is a quorum, so the
// installer settles for its acks instead of blocking on the crashed member.
func TestRemoteInstallerSettlesForServerQuorum(t *testing.T) {
	t.Parallel()
	net := transport.NewSimnet()
	c := abdConfig("cl", "dq", 3)
	c0 := abdConfig("c0", "dq0", 3)
	cluster, err := NewCluster(c0, net)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	addHosts(cluster, c)
	net.Crash(c.Servers[2])

	installer := RemoteInstaller(net.Client("g1"))
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	if err := installer(ctx, c); err != nil {
		t.Fatalf("install with one crashed server (quorum intact): %v", err)
	}
}

// TestRetryJitterPrivateSeededSource pins the retry-RNG fix: each client
// draws jitter from its own source (no global math/rand contention), seeded
// deterministically — same process ID (or explicit RetryPolicy.Seed) ⇒ same
// pacing, so replays reproduce retry timing exactly.
func TestRetryJitterPrivateSeededSource(t *testing.T) {
	t.Parallel()
	c0 := treasConfig("c0", "rj", 5, 3, 2)
	cluster, err := NewCluster(c0, transport.NewSimnet())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	policy := RetryPolicy{Base: time.Millisecond, Cap: 32 * time.Millisecond, Multiplier: 2, Jitter: 0.5, Seed: 42}
	seq := func(id types.ProcessID) []time.Duration {
		c, err := cluster.NewClient(id)
		if err != nil {
			t.Fatal(err)
		}
		c.SetRetryPolicy(policy)
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = c.retryDelay(i)
		}
		return out
	}
	a, b := seq("r1"), seq("r2")
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("attempt %d: %v vs %v — explicit Seed did not reproduce pacing", i, a[i], b[i])
		}
	}
	// Default seeding is per-process-ID: distinct clients desynchronize.
	noSeed := policy
	noSeed.Seed = 0
	c1, err := cluster.NewClient("rx1")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := cluster.NewClient("rx2")
	if err != nil {
		t.Fatal(err)
	}
	c1.SetRetryPolicy(noSeed)
	c2.SetRetryPolicy(noSeed)
	same := true
	for i := 0; i < 8; i++ {
		if c1.retryDelay(i) != c2.retryDelay(i) {
			same = false
		}
	}
	if same {
		t.Fatal("distinct clients produced identical jitter sequences — per-client seeding broken")
	}
}
