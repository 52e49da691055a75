package chaos

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/ares-storage/ares/internal/core"
	"github.com/ares-storage/ares/internal/history"
	"github.com/ares-storage/ares/internal/transport"
	"github.com/ares-storage/ares/internal/types"
)

// requireLinearizable fails the test with full replay instructions when a
// verdict is not clean — the scenario name + seed line the satellite task
// demands on any chaos failure.
func requireLinearizable(t *testing.T, v Verdict) {
	t.Helper()
	if v.Linearizable {
		return
	}
	for _, kv := range v.Keys {
		for _, viol := range kv.Violations {
			t.Errorf("scenario %s seed %d key %s: %s", v.Scenario, v.Seed, kv.Key, viol)
		}
	}
	t.Fatalf("scenario %s seed %d: NOT linearizable (%d ops, %d incomplete); replay: %s",
		v.Scenario, v.Seed, v.Ops, v.Incomplete, v.Replay())
}

// TestChaosMatrix runs every built-in scenario once at smoke duration.
// Override the seed with ARES_CHAOS_SEED to replay a failure exactly.
func TestChaosMatrix(t *testing.T) {
	seed := SeedFromEnv(7)
	for _, sc := range Matrix() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			v, err := Run(sc, Options{Seed: seed, Logf: t.Logf})
			if err != nil {
				t.Fatalf("scenario %s seed %d: %v", sc.Name, seed, err)
			}
			requireLinearizable(t, v)
			if v.Ops < 10 {
				t.Fatalf("scenario %s seed %d: only %d ops recorded — the workload barely ran", sc.Name, seed, v.Ops)
			}
			if len(sc.Chain) > 0 && v.Reconfigs == 0 {
				t.Errorf("scenario %s seed %d: no reconfiguration completed (%d errors)", sc.Name, seed, v.ReconfigErrors)
			}
			if v.StateBoundExceeded {
				t.Errorf("scenario %s seed %d: lifecycle GC bound blown: %d retained states across %d keys (bound %d per key, %d retired); replay: %s",
					sc.Name, seed, v.ServerStates, sc.Keys, sc.MaxStatesPerKey, v.RetiredStates, v.Replay())
			}
			if sc.MaxStatesPerKey > 0 && v.RetiredStates == 0 && v.Reconfigs > 0 {
				t.Errorf("scenario %s seed %d: %d reconfigs completed but no state was retired — GC never fired", sc.Name, seed, v.Reconfigs)
			}
			t.Logf("%s: %d ops, %d incomplete, %d op errors, %d reconfigs, verdict via %s",
				sc.Name, v.Ops, v.Incomplete, v.OpErrors, v.Reconfigs, v.Keys[0].Method)
		})
	}
}

// TestChaosSoak is the long variant: every scenario stretched 3×. Kept out
// of -short (and CI runs it under -race in the full-suite step).
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	seed := SeedFromEnv(21)
	for _, sc := range Matrix() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			v, err := Run(sc, Options{Seed: seed, Stretch: 3, Logf: t.Logf})
			if err != nil {
				t.Fatalf("scenario %s seed %d: %v", sc.Name, seed, err)
			}
			requireLinearizable(t, v)
		})
	}
}

// TestBrokenClientCaught is the checker's negative control: a reader with
// the write-back phase disabled (raw get-data, never put-data) violates
// atomicity under concurrent writes, and the verdict MUST say so. A checker
// that lets this pass verifies nothing.
func TestBrokenClientCaught(t *testing.T) {
	seed := SeedFromEnv(7)
	for attempt := 0; attempt < 3; attempt++ {
		if brokenClientFlagged(t, seed+int64(attempt)) {
			return
		}
	}
	t.Fatalf("broken write-back-free reader was never flagged in 3 runs — the checker accepts non-atomic histories")
}

// brokenClientFlagged runs one cluster with a normal writer and a reader
// that skips write-back, reporting whether the checker flagged the history.
func brokenClientFlagged(t *testing.T, seed int64) bool {
	t.Helper()
	c0 := abdTemplate("broken", 5)
	c0.ID = "broken/c0"
	net := transport.NewSimnet(transport.WithDelayRange(0, time.Millisecond), transport.WithSeed(seed))
	defer net.Close()
	cluster, err := core.NewCluster(c0, net)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	// Make the writer's messages to all servers but the first slow: each
	// written value lands on s1 ~30ms before it reaches anywhere else, so
	// every write has a wide in-flight window in which only one replica
	// holds the new value. A write-back-free reader sampling majorities
	// during that window sees the new value exactly when its quorum draw
	// includes s1 — and regresses on the next draw that misses it.
	for _, s := range c0.Servers[1:] {
		net.SetLinkFaults("bw1", s, transport.LinkFaults{
			Extra: transport.DelayRange{Min: 25 * time.Millisecond, Max: 35 * time.Millisecond},
		})
	}

	writer, err := cluster.NewClientFor("bw1", c0)
	if err != nil {
		t.Fatal(err)
	}
	// The broken reader: a raw DAP client used without the A1 template's
	// propagate phase — exactly "write-back disabled".
	brokenRead, err := cluster.Registry().New(c0, net.Client("br1"))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rec := history.NewRecorder()
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for seq := 0; ; seq++ {
			select {
			case <-stop:
				return
			default:
			}
			v := types.Value(fmt.Sprintf("bw1/%d", seq))
			p := rec.BeginWrite("bw1", v)
			tg, err := writer.Write(ctx, v)
			if err != nil {
				p.Fail()
				return
			}
			p.Done(tg, v)
		}
	}()
	deadline := time.Now().Add(1200 * time.Millisecond)
	for time.Now().Before(deadline) {
		p := rec.BeginRead("br1")
		pair, err := brokenRead.GetData(ctx)
		if err != nil {
			p.Fail()
			continue
		}
		p.Done(pair.Tag, pair.Value)
	}
	close(stop)
	<-writerDone

	rep := history.Verify(rec.Ops(), history.CheckOptions{})
	t.Logf("broken-client run seed %d: %d ops via %s, linearizable=%v", seed, rep.Ops, rep.Method, rep.Linearizable)
	return !rep.Linearizable
}

// TestScheduleOrderingAndStretch pins the schedule's pure-value semantics:
// events fire in At order regardless of slice order, and stretch scales
// offsets.
func TestScheduleOrderingAndStretch(t *testing.T) {
	t.Parallel()
	s := Schedule{
		{At: 30 * time.Millisecond, Kind: EvRestart, Target: "s1"},
		{At: 10 * time.Millisecond, Kind: EvCrash, Target: "s1"},
	}
	sorted := s.sorted()
	if sorted[0].Kind != EvCrash || sorted[1].Kind != EvRestart {
		t.Fatalf("sorted order = %v", sorted)
	}
	if s[0].Kind != EvRestart {
		t.Fatal("sorted must not mutate the original schedule")
	}
	stretched := s.stretch(2)
	if stretched[1].At != 20*time.Millisecond {
		t.Fatalf("stretch: At = %v, want 20ms", stretched[1].At)
	}
	if s[1].At != 10*time.Millisecond {
		t.Fatal("stretch must not mutate the original schedule")
	}
}

// TestScheduleAppliesAgainstNetwork runs a crash/restart timeline against a
// real Simnet and observes the mutations land, including that EvRestart
// routes through the fabric's restart hook before delivery resumes.
func TestScheduleAppliesAgainstNetwork(t *testing.T) {
	t.Parallel()
	net := transport.NewSimnet()
	var restarted []types.ProcessID
	fabric := Fabric{Net: net, Restart: func(id types.ProcessID) error {
		restarted = append(restarted, id)
		return nil
	}}
	s := Schedule{
		{At: 0, Kind: EvCrash, Target: "s1"},
		{At: 20 * time.Millisecond, Kind: EvRestart, Target: "s1"},
		{At: 10 * time.Millisecond, Kind: EvBlockLink, From: "a", To: "b"},
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.run(time.Now(), stop, fabric, func(string, ...any) {})
	}()
	<-done
	if net.Crashed("s1") {
		t.Fatal("s1 should have been restarted by the final event")
	}
	if len(restarted) != 1 || restarted[0] != "s1" {
		t.Fatalf("restart hook saw %v, want [s1]", restarted)
	}
	if !net.LinkBlocked("a", "b") {
		t.Fatal("a → b should be blocked")
	}
	close(stop)
}

// TestRestartWithoutHookRefused pins EvRestart's honesty contract: without a
// restart hook there is no process rebuild, and the event must refuse to
// degrade into the old preserve-state behavior. EvRestartPreserveState is
// the explicit way to ask for that.
func TestRestartWithoutHookRefused(t *testing.T) {
	t.Parallel()
	net := transport.NewSimnet()
	net.Crash("s1")
	ev := Event{Kind: EvRestart, Target: "s1"}
	if err := ev.apply(Fabric{Net: net}); err == nil {
		t.Fatal("EvRestart without a restart hook must error")
	}
	if !net.Crashed("s1") {
		t.Fatal("a refused restart must leave the process crashed")
	}
	keep := Event{Kind: EvRestartPreserveState, Target: "s1"}
	if err := keep.apply(Fabric{Net: net}); err != nil {
		t.Fatal(err)
	}
	if net.Crashed("s1") {
		t.Fatal("EvRestartPreserveState should clear the crash flag")
	}
}

func TestSeedFromEnv(t *testing.T) {
	t.Setenv("ARES_CHAOS_SEED", "42")
	if got := SeedFromEnv(7); got != 42 {
		t.Fatalf("SeedFromEnv = %d, want 42", got)
	}
	t.Setenv("ARES_CHAOS_SEED", "not-a-number")
	if got := SeedFromEnv(7); got != 7 {
		t.Fatalf("SeedFromEnv with junk = %d, want default 7", got)
	}
}

// TestFindScenario covers the lookup the bench CLI uses.
func TestFindScenario(t *testing.T) {
	t.Parallel()
	if _, ok := Find("minority-partition"); !ok {
		t.Fatal("minority-partition missing from the matrix")
	}
	if _, ok := Find("no-such-scenario"); ok {
		t.Fatal("Find invented a scenario")
	}
	if len(Matrix()) < 6 {
		t.Fatalf("matrix has %d scenarios, acceptance demands ≥ 6", len(Matrix()))
	}
	seen := map[string]bool{}
	for _, sc := range Matrix() {
		if seen[sc.Name] {
			t.Fatalf("duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		if sc.Schedule == nil {
			t.Fatalf("scenario %q has no fault schedule — it is not adversarial", sc.Name)
		}
	}
}
