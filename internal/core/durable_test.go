package core

// End-to-end durability tests over the real services: a cluster journals
// under a temp dir, a host is crash-restarted (RestartHost — the old host
// object and its volatile state discarded), and recovered state must answer
// exactly as the live state did.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/ares-storage/ares/internal/abd"
	"github.com/ares-storage/ares/internal/cfg"
	"github.com/ares-storage/ares/internal/consensus"
	"github.com/ares-storage/ares/internal/keystate"
	"github.com/ares-storage/ares/internal/recon"
	"github.com/ares-storage/ares/internal/tag"
	"github.com/ares-storage/ares/internal/transport"
	"github.com/ares-storage/ares/internal/treas"
	"github.com/ares-storage/ares/internal/types"
)

func durableCluster(t *testing.T, c0 cfg.Configuration) *Cluster {
	t.Helper()
	cluster, err := NewCluster(c0, transport.NewSimnet())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	if err := cluster.EnableDurability(t.TempDir(), keystate.WithFsync(false)); err != nil {
		t.Fatal(err)
	}
	return cluster
}

// TestDurableRestartRecoversAcknowledgedWrites pins the tentpole across both
// store algorithms: acknowledged writes survive a full crash-restart of
// every server — each restart discards the host object entirely and rebuilds
// from WAL + snapshot — and a fresh reader sees the last written value.
func TestDurableRestartRecoversAcknowledgedWrites(t *testing.T) {
	t.Parallel()
	for _, alg := range []struct {
		name string
		c0   cfg.Configuration
	}{
		{"abd", abdConfig("c0", "da", 3)},
		{"treas", treasConfig("c0", "dt", 5, 3, 2)},
	} {
		alg := alg
		t.Run(alg.name, func(t *testing.T) {
			t.Parallel()
			cluster := durableCluster(t, alg.c0)
			ctx := context.Background()
			w, err := cluster.NewClient("w1")
			if err != nil {
				t.Fatal(err)
			}
			var lastTag interface{ String() string }
			for i := 0; i < 5; i++ {
				wTag, err := w.Write(ctx, types.Value(fmt.Sprintf("v%d", i)))
				if err != nil {
					t.Fatal(err)
				}
				lastTag = wTag
			}
			// Crash-restart EVERY server: nothing survives in memory.
			for _, s := range alg.c0.Servers {
				if _, err := cluster.RestartHost(s); err != nil {
					t.Fatal(err)
				}
			}
			r, err := cluster.NewClient("r1")
			if err != nil {
				t.Fatal(err)
			}
			pair, err := r.Read(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if string(pair.Value) != "v4" {
				t.Fatalf("after restart read %q (tag %v), want v4 (tag %v)", pair.Value, pair.Tag, lastTag)
			}
		})
	}
}

// TestDurableRestartWithoutDurabilityIsAmnesiac pins the honest-restart
// semantics on its own: with durability NOT enabled, RestartHost must lose
// the victim's state — the opposite of the old EvRestart bug where a
// "restarted" process kept its memory.
func TestDurableRestartWithoutDurabilityIsAmnesiac(t *testing.T) {
	t.Parallel()
	c0 := abdConfig("c0", "amn", 3)
	cluster, err := NewCluster(c0, transport.NewSimnet())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	ctx := context.Background()
	w, err := cluster.NewClient("w1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(ctx, types.Value("volatile")); err != nil {
		t.Fatal(err)
	}
	victim := c0.Servers[0]
	h, _ := cluster.Host(victim)
	if h.MaterializedStates() == 0 {
		t.Fatal("victim had no state before restart")
	}
	h2, err := cluster.RestartHost(victim)
	if err != nil {
		t.Fatal(err)
	}
	if n := h2.MaterializedStates(); n != 0 {
		t.Fatalf("amnesiac restart kept %d states", n)
	}
}

// TestDurableReconfigAndRetirementSurviveRestart runs a reconfiguration
// (ABD → ABD on the same server set), restarts every server, and asserts
// (a) the written value is still readable after the walk and the restarts
// and (b) the retirement tombstones did not evaporate — a lagging client
// must keep getting redirected, never rematerialized v₀ state.
func TestDurableReconfigAndRetirementSurviveRestart(t *testing.T) {
	t.Parallel()
	const key = "rw"
	c0 := abdConfig("dur/rw/c0", "rw", 3)
	c0.Key = key
	c1 := abdConfig("dur/rw/c1", "rw", 3) // same servers, new configuration
	c1.Key = key
	cluster := durableCluster(t, c0)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	w, err := cluster.NewClient("w1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(ctx, types.Value("before-recon")); err != nil {
		t.Fatal(err)
	}

	rc, err := cluster.NewReconfigurer("rec1", recon.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Reconfig(ctx, c1); err != nil {
		t.Fatal(err)
	}
	// Finalization gossip (and with it, retirement) is asynchronous: wait
	// until every server has tombstoned (key, c0) before pulling the plug.
	tombstoned := func() bool {
		for _, s := range c0.Servers {
			h, _ := cluster.Host(s)
			if _, ok := h.Resolver().RetiredSuccessor(key, c0.ID); !ok {
				return false
			}
		}
		return true
	}
	for deadline := time.Now().Add(5 * time.Second); !tombstoned(); {
		if time.Now().After(deadline) {
			t.Fatal("reconfiguration never retired (key, c0) on every server")
		}
		time.Sleep(10 * time.Millisecond)
	}

	for _, s := range c0.Servers {
		if _, err := cluster.RestartHost(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range c0.Servers {
		h, _ := cluster.Host(s)
		if rs, ok := h.Resolver().RetiredSuccessor(key, c0.ID); !ok {
			t.Fatalf("server %s forgot the retirement of %s", s, c0.ID)
		} else if rs != c1.ID {
			t.Fatalf("server %s recovered successor %s, want %s", s, rs, c1.ID)
		}
	}

	r, err := cluster.NewClient("r1")
	if err != nil {
		t.Fatal(err)
	}
	pair, err := r.Read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if string(pair.Value) != "before-recon" {
		t.Fatalf("after reconfig+restart read %q, want before-recon", pair.Value)
	}
}

// TestDurableSnapshotRestoresEveryFamily builds durable state in all four
// keyed families and the resolver, snapshots every host, writes a log tail
// on top, crash-restarts every host, and compares what recovery rebuilt
// with what the live hosts held: ABD registers, TREAS Lists, the resolver's
// retirement record, nextC pointers and Paxos acceptors. Each family has
// state captured by the snapshot and state that only the log tail holds.
func TestDurableSnapshotRestoresEveryFamily(t *testing.T) {
	t.Parallel()
	const servers = 5
	root := abdConfig("dur/every/root", "ev", servers)
	cluster := durableCluster(t, root)
	abdT := abdConfig(cfg.ID("dur/every/"+cfg.KeyPlaceholder+"/c0"), "ev", servers)
	treasT := treasConfig(cfg.ID("dur/every/"+cfg.KeyPlaceholder+"/c1"), "ev", servers, 3, 2)
	for _, tmpl := range []cfg.Configuration{abdT, treasT} {
		if err := cluster.InstallConfiguration(tmpl); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	net := cluster.Network()

	// ka stays on ABD c0; kb moves ABD c0 → TREAS c1, which retires c0.
	ka0, kb0, kb1 := abdT.ForKey("ka"), abdT.ForKey("kb"), treasT.ForKey("kb")
	wa, err := cluster.NewClientFor("wa", ka0)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := cluster.NewClientFor("wb", kb0)
	if err != nil {
		t.Fatal(err)
	}
	write := func(w *Client, v string) {
		t.Helper()
		if _, err := w.Write(ctx, types.Value(v)); err != nil {
			t.Fatal(err)
		}
	}
	write(wa, "a-snap")
	write(wb, "b-abd")
	rc, err := cluster.NewReconfigurerFor("rb", kb0, recon.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Reconfig(ctx, kb1); err != nil {
		t.Fatal(err)
	}
	write(wb, "b-snap")
	for deadline := time.Now().Add(5 * time.Second); ; {
		done := true
		for _, s := range root.Servers {
			h, _ := cluster.Host(s)
			if _, ok := h.Resolver().RetiredSuccessor("kb", kb0.ID); !ok {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("reconfiguration never retired (kb, c0) on every server")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Paxos: on each side of the snapshot, one instance decided by a
	// proposer and bare promises at a high ballot on an undecided one.
	decide := func(c cfg.Configuration) {
		t.Helper()
		prop, err := consensus.NewProposer("pp", c.Key, string(c.ID), c.Servers, net.Client("pp"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := prop.Propose(ctx, []byte("decided-"+c.Key)); err != nil {
			t.Fatal(err)
		}
	}
	decidedSnap, decidedLog := abdT.ForKey("pd"), abdT.ForKey("pe")
	decide(decidedSnap)
	type prepareBody struct{ Ballot consensus.Ballot }
	type promiseReply struct{ Promised, Decided bool }
	prepare := func(s types.ProcessID, c cfg.Configuration, round int64) bool {
		t.Helper()
		got, err := transport.InvokeTyped[promiseReply](ctx, net.Client("pp"), s,
			transport.Addr{Service: consensus.ServiceName, Key: c.Key, Config: string(c.ID), Type: "prepare"},
			prepareBody{Ballot: consensus.Ballot{Round: round, Proposer: 1}})
		if err != nil {
			t.Fatal(err)
		}
		return got.Promised
	}
	promiseSnap, promiseLog := abdT.ForKey("pa"), abdT.ForKey("pb")
	for _, s := range root.Servers {
		if !prepare(s, promiseSnap, 100) {
			t.Fatalf("%s refused the first prepare", s)
		}
	}
	// nextC: a pending successor on (kc, c0), a key with no data traffic,
	// before the snapshot.
	if err := rc.PutConfig(ctx, abdT.ForKey("kc"), cfg.Entry{Cfg: treasT.ForKey("kc"), Status: cfg.Pending}); err != nil {
		t.Fatal(err)
	}

	net.Quiesce()
	for _, s := range root.Servers {
		h, _ := cluster.Host(s)
		if err := h.Durability().Snapshot(); err != nil {
			t.Fatal(err)
		}
	}

	// The log tail: newer values, a promise, and a pending pointer on (kd,
	// c0) that only replay can bring back.
	write(wa, "a-log")
	write(wb, "b-log")
	decide(decidedLog)
	for _, s := range root.Servers {
		if !prepare(s, promiseLog, 100) {
			t.Fatalf("%s refused the first prepare", s)
		}
	}
	if err := rc.PutConfig(ctx, abdT.ForKey("kd"), cfg.Entry{Cfg: treasT.ForKey("kd"), Status: cfg.Pending}); err != nil {
		t.Fatal(err)
	}
	net.Quiesce()

	type hostState struct {
		abd                   tag.Pair
		abdOK                 bool
		tags, elems           int
		maxTag                tag.Tag
		successor             cfg.ID
		retired               bool
		nextLog, nextSnap     cfg.Entry
		nextLogOK, nextSnapOK bool
		decided               [2][]byte
		decidedOK             [2]bool
	}
	capture := func(h *Host) hostState {
		abdSvc, _ := h.Node().LookupKeyed(abd.ServiceName)
		treasSvc, _ := h.Node().LookupKeyed(treas.ServiceName)
		reconSvc, _ := h.Node().LookupKeyed(recon.ServiceName)
		paxosSvc, _ := h.Node().LookupKeyed(consensus.ServiceName)
		var st hostState
		st.abd, st.abdOK = abdSvc.(*abd.Service).Current("ka", string(ka0.ID))
		st.tags, st.elems = treasSvc.(*treas.Service).ListSize("kb", string(kb1.ID))
		st.maxTag = treasSvc.(*treas.Service).MaxTag("kb", string(kb1.ID))
		st.successor, st.retired = h.Resolver().RetiredSuccessor("kb", kb0.ID)
		st.nextLog, st.nextLogOK = reconSvc.(*recon.Service).Next("kd", string(abdT.ForKey("kd").ID))
		st.nextSnap, st.nextSnapOK = reconSvc.(*recon.Service).Next("kc", string(abdT.ForKey("kc").ID))
		for i, c := range []cfg.Configuration{decidedSnap, decidedLog} {
			st.decided[i], st.decidedOK[i] = paxosSvc.(*consensus.Service).Decided(c.Key, string(c.ID))
		}
		return st
	}
	live := make(map[types.ProcessID]hostState)
	for _, s := range root.Servers {
		h, _ := cluster.Host(s)
		live[s] = capture(h)
	}

	for _, s := range root.Servers {
		h, err := cluster.RestartHost(s)
		if err != nil {
			t.Fatal(err)
		}
		stats := h.Durability().Stats()
		if stats.SnapshotStates == 0 || stats.Applies == 0 {
			t.Fatalf("%s recovered %+v, want snapshot states and a log tail", s, stats)
		}
		got, want := capture(h), live[s]
		if !want.abdOK || string(want.abd.Value) != "a-log" {
			t.Fatalf("%s live ABD register %+v (ok %v), want a-log", s, want.abd, want.abdOK)
		}
		if got.abdOK != want.abdOK || got.abd.Tag != want.abd.Tag || string(got.abd.Value) != string(want.abd.Value) {
			t.Errorf("%s ABD register: restored %+v (ok %v), live %+v", s, got.abd, got.abdOK, want.abd)
		}
		if want.tags == 0 || got.tags != want.tags || got.elems != want.elems || got.maxTag != want.maxTag {
			t.Errorf("%s TREAS List: restored %d tags / %d elements / max %v, live %d / %d / %v",
				s, got.tags, got.elems, got.maxTag, want.tags, want.elems, want.maxTag)
		}
		if !got.retired || got.successor != kb1.ID || got.successor != want.successor {
			t.Errorf("%s retirement of (kb, c0): restored %s (%v), live %s", s, got.successor, got.retired, want.successor)
		}
		if !want.nextLogOK || !want.nextSnapOK || got.nextLogOK != want.nextLogOK || got.nextSnapOK != want.nextSnapOK ||
			!sameEntry(got.nextLog, want.nextLog) || !sameEntry(got.nextSnap, want.nextSnap) {
			t.Errorf("%s nextC: restored %v/%v (%v/%v), live %v/%v (%v/%v)", s,
				got.nextSnap, got.nextLog, got.nextSnapOK, got.nextLogOK, want.nextSnap, want.nextLog, want.nextSnapOK, want.nextLogOK)
		}
		if !want.decidedOK[0] || !want.decidedOK[1] || got.decidedOK != want.decidedOK ||
			string(got.decided[0]) != string(want.decided[0]) || string(got.decided[1]) != string(want.decided[1]) {
			t.Errorf("%s decided %q (%v), live %q (%v)", s, got.decided, got.decidedOK, want.decided, want.decidedOK)
		}
		for _, c := range []cfg.Configuration{promiseSnap, promiseLog} {
			if prepare(s, c, 50) {
				t.Errorf("%s forgot its promise on %s: a lower ballot was promised after restart", s, c.ID)
			}
		}
	}

	// Fresh clients read the log tail's values back: ka from ABD c0, kb
	// redirected from its retired c0 to TREAS c1.
	for _, rd := range []struct {
		key  string
		root cfg.Configuration
		want string
	}{{"ka", ka0, "a-log"}, {"kb", kb0, "b-log"}} {
		r, err := cluster.NewClientFor(types.ProcessID("r-"+rd.key), rd.root)
		if err != nil {
			t.Fatal(err)
		}
		pair, err := r.Read(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if string(pair.Value) != rd.want {
			t.Errorf("after restart %s read %q, want %q", rd.key, pair.Value, rd.want)
		}
	}
}

func sameEntry(a, b cfg.Entry) bool { return a.Status == b.Status && a.Cfg.Equal(b.Cfg) }
