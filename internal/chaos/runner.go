package chaos

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ares-storage/ares/internal/cfg"
	"github.com/ares-storage/ares/internal/core"
	"github.com/ares-storage/ares/internal/history"
	"github.com/ares-storage/ares/internal/keystate"
	"github.com/ares-storage/ares/internal/recon"
	"github.com/ares-storage/ares/internal/transport"
	"github.com/ares-storage/ares/internal/types"
)

// Options tunes one chaos run.
type Options struct {
	// Seed drives every probabilistic choice (delay draws, drop/dup
	// sampling). Zero means 1. Override from the environment with
	// SeedFromEnv for replays.
	Seed int64
	// Stretch scales the scenario's duration and schedule offsets
	// (soak runs use > 1). Zero means 1.
	Stretch float64
	// Logf receives progress and applied-event lines; nil discards them.
	Logf func(format string, args ...any)
}

// KeyVerdict is the per-register outcome of a run.
type KeyVerdict struct {
	Key          string   `json:"key"`
	Ops          int      `json:"ops"`
	Incomplete   int      `json:"incomplete"`
	Method       string   `json:"method"`
	Steps        int      `json:"steps,omitempty"`
	Note         string   `json:"note,omitempty"`
	Linearizable bool     `json:"linearizable"`
	Violations   []string `json:"violations,omitempty"`
}

// Verdict is the machine-readable outcome of one chaos run: what ran, under
// which seed, and whether every key's history was linearizable.
type Verdict struct {
	Scenario       string  `json:"scenario"`
	Description    string  `json:"description,omitempty"`
	Seed           int64   `json:"seed"`
	Stretch        float64 `json:"stretch"`
	DurationMS     int64   `json:"duration_ms"`
	Ops            int     `json:"ops"`
	OpErrors       int     `json:"op_errors"`
	Incomplete     int     `json:"incomplete"`
	Reconfigs      int     `json:"reconfigs"`
	ReconfigErrors int     `json:"reconfig_errors"`
	Linearizable   bool    `json:"linearizable"`
	// ServerStates and RetiredStates account the configuration-lifecycle GC:
	// live (key, config) state entries retained across the cluster's servers
	// at the end of the run, and entries garbage-collected during it.
	// StateBoundExceeded is set when the scenario declares MaxStatesPerKey
	// and the retained states blow it — a GC regression, reported as a
	// failed verdict alongside linearizability.
	ServerStates       int          `json:"server_states"`
	RetiredStates      int64        `json:"retired_states"`
	StateBoundExceeded bool         `json:"state_bound_exceeded,omitempty"`
	Keys               []KeyVerdict `json:"keys"`
}

// Replay renders the command that reproduces this run's adversarial
// conditions: same scenario, same seed, and the test that runs it at this
// duration stretch (TestChaosMatrix at 1, the TestChaosSoak soak otherwise).
func (v Verdict) Replay() string {
	test := "TestChaosMatrix"
	if v.Stretch != 1 {
		test = "TestChaosSoak"
	}
	return fmt.Sprintf("ARES_CHAOS_SEED=%d go test ./internal/chaos -run '%s/^%s$'", v.Seed, test, v.Scenario)
}

// SeedFromEnv returns the seed pinned in the ARES_CHAOS_SEED environment
// variable, or def when unset/unparsable — the replay hook every chaos test
// routes its seed through.
func SeedFromEnv(def int64) int64 {
	if s := os.Getenv("ARES_CHAOS_SEED"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return v
		}
	}
	return def
}

// Run executes one scenario: deploy the cluster, start the multi-key
// workload and the background reconfiguration walk, fire the fault
// schedule, and check every key's recorded history for value-based
// linearizability. The returned error covers setup problems only; protocol
// misbehaviour surfaces in the Verdict.
func Run(sc Scenario, opt Options) (Verdict, error) {
	seed := opt.Seed
	if seed == 0 {
		seed = 1
	}
	stretch := opt.Stretch
	if stretch <= 0 {
		stretch = 1
	}
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	duration := time.Duration(float64(sc.Duration) * stretch)
	if duration <= 0 {
		duration = 500 * time.Millisecond
	}
	opTimeout := sc.OpTimeout
	if opTimeout <= 0 {
		opTimeout = 250 * time.Millisecond
	}
	keys := sc.Keys
	if keys <= 0 {
		keys = 1
	}
	writers, readers := sc.Writers, sc.Readers
	if writers <= 0 {
		writers = 1
	}
	if readers <= 0 {
		readers = 1
	}

	net := transport.NewSimnet(
		transport.WithDelayRange(sc.Delay.Min, sc.Delay.Max),
		transport.WithSeed(seed),
	)
	defer net.Close()

	root := sc.Template
	root.ID = cfg.ID("chaos/" + sc.Name + "/root")
	cluster, err := core.NewCluster(root, net)
	if err != nil {
		return Verdict{}, fmt.Errorf("chaos: deploying %s: %w", sc.Name, err)
	}
	if sc.Durable {
		// Durable scenarios journal under a run-scoped directory so an
		// EvRestart recovers from disk. Fsync off: the run survives process
		// kills (what EvRestart models), not machine crashes, and chaos runs
		// are timeboxed. Enable before chain hosts join so every server —
		// current and future — journals.
		dir, err := os.MkdirTemp("", "ares-chaos-"+sc.Name+"-*")
		if err != nil {
			return Verdict{}, fmt.Errorf("chaos: data dir for %s: %w", sc.Name, err)
		}
		defer os.RemoveAll(dir)
		if err := cluster.EnableDurability(dir, keystate.WithFsync(false)); err != nil {
			return Verdict{}, fmt.Errorf("chaos: enabling durability for %s: %w", sc.Name, err)
		}
	}
	for _, tmpl := range sc.Chain {
		for _, s := range tmpl.Servers {
			cluster.AddHost(s)
		}
	}
	fabric := Fabric{
		Net: net,
		Restart: func(id types.ProcessID) error {
			_, err := cluster.RestartHost(id)
			return err
		},
	}

	// reconfigures reports whether key k runs the reconfiguration walk:
	// all chain scenarios do unless ReconfigKeys caps the walk to the first
	// N keys (the timebox for high-cardinality scenarios, where the point
	// of the remaining keys is keyed routing, not a thousand walks).
	reconfigures := func(k int) bool {
		if len(sc.Chain) == 0 {
			return false
		}
		return sc.ReconfigKeys <= 0 || k < sc.ReconfigKeys
	}

	// Deterministic process naming, so schedules can aim at clients.
	keyName := func(k int) string { return fmt.Sprintf("k%d", k) }
	var clients []types.ProcessID
	writerID := func(k, i int) types.ProcessID { return types.ProcessID(fmt.Sprintf("cw%d-%s", i, keyName(k))) }
	readerID := func(k, i int) types.ProcessID { return types.ProcessID(fmt.Sprintf("cr%d-%s", i, keyName(k))) }
	reconID := func(k int) types.ProcessID { return types.ProcessID("g-" + keyName(k)) }
	for k := 0; k < keys; k++ {
		for i := 0; i < writers; i++ {
			clients = append(clients, writerID(k, i))
		}
		for i := 0; i < readers; i++ {
			clients = append(clients, readerID(k, i))
		}
		if reconfigures(k) {
			clients = append(clients, reconID(k))
		}
	}
	env := Env{
		Servers:    append([]types.ProcessID(nil), sc.Template.Servers...),
		AllServers: append([]types.ProcessID(nil), sc.Template.Servers...),
		Clients:    clients,
	}
	for _, tmpl := range sc.Chain {
		env.AllServers = append(env.AllServers, tmpl.Servers...)
	}
	var schedule Schedule
	if sc.Schedule != nil {
		schedule = sc.Schedule(env).stretch(stretch)
	}

	// One register per key, each with its own configuration chain — all
	// derived from a single template installed once. Per-key server state
	// materializes lazily on the keys' first operations (keyed routing), so
	// scenario setup is O(1) in the key count.
	tmpl := sc.Template
	tmpl.ID = cfg.ID(fmt.Sprintf("chaos/%s/%s/c0", sc.Name, cfg.KeyPlaceholder))
	if err := cluster.InstallConfiguration(tmpl); err != nil {
		return Verdict{}, fmt.Errorf("chaos: installing template for %s: %w", sc.Name, err)
	}
	keyConf := func(k int) cfg.Configuration {
		return tmpl.ForKey(keyName(k))
	}
	recorders := make([]*history.Recorder, keys)
	for k := 0; k < keys; k++ {
		recorders[k] = history.NewRecorder()
	}

	ctx, cancel := context.WithTimeout(context.Background(), duration+15*time.Second)
	defer cancel()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var opErrs, reconfigs, reconfigErrs atomic.Int64

	reconTimeout := 4 * opTimeout
	if reconTimeout < time.Second {
		reconTimeout = time.Second
	}

	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	// setupFail aborts a partially-launched run: without the close, already
	// started workload goroutines would spin on instant ctx failures for
	// the life of the process.
	setupFail := func(err error) (Verdict, error) {
		close(stop)
		wg.Wait()
		return Verdict{}, err
	}

	for k := 0; k < keys; k++ {
		k := k
		rec := recorders[k]
		conf := keyConf(k)
		for i := 0; i < writers; i++ {
			id := writerID(k, i)
			client, err := cluster.NewClientFor(id, conf)
			if err != nil {
				return setupFail(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for seq := 0; !stopped(); seq++ {
					v := types.Value(fmt.Sprintf("%s/%d", id, seq))
					p := rec.BeginWrite(id, v)
					opCtx, opCancel := context.WithTimeout(ctx, opTimeout)
					t, err := client.Write(opCtx, v)
					opCancel()
					if err != nil {
						p.Fail() // unacknowledged: may or may not have taken effect
						opErrs.Add(1)
						continue
					}
					p.Done(t, v)
				}
			}()
		}
		for i := 0; i < readers; i++ {
			id := readerID(k, i)
			client, err := cluster.NewClientFor(id, conf)
			if err != nil {
				return setupFail(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stopped() {
					p := rec.BeginRead(id)
					opCtx, opCancel := context.WithTimeout(ctx, opTimeout)
					pair, err := client.Read(opCtx)
					opCancel()
					if err != nil {
						p.Fail()
						opErrs.Add(1)
						continue
					}
					p.Done(pair.Tag, pair.Value)
				}
			}()
		}
		if reconfigures(k) {
			g, err := cluster.NewReconfigurerFor(reconID(k), conf, recon.Options{DirectTransfer: true})
			if err != nil {
				return setupFail(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				step := duration / time.Duration(len(sc.Chain)+1)
				for ci, tmpl := range sc.Chain {
					select {
					case <-stop:
						return
					case <-time.After(step):
					}
					target := tmpl
					target.ID = cfg.ID(fmt.Sprintf("chaos/%s/%s/c%d", sc.Name, keyName(k), ci+1))
					for attempt := 0; attempt < 10; attempt++ {
						opCtx, opCancel := context.WithTimeout(ctx, reconTimeout)
						_, err := g.Reconfig(opCtx, target)
						opCancel()
						// A retry after a partially-failed attempt may find
						// the proposal already in the sequence (consensus and
						// put-config landed; a later phase was cut off). The
						// configuration is reachable — readers/writers and
						// the next reconfig finish the propagation — so the
						// walk moves on.
						if err == nil || errors.Is(err, recon.ErrSameConfiguration) {
							reconfigs.Add(1)
							logf("chaos: %s: key %s reconfigured to %s", sc.Name, keyName(k), target.ID)
							break
						}
						reconfigErrs.Add(1)
						logf("chaos: %s: key %s reconfig to %s attempt %d: %v", sc.Name, keyName(k), target.ID, attempt+1, err)
						if stopped() {
							return
						}
					}
				}
			}()
		}
	}

	start := time.Now()
	schedDone := make(chan struct{})
	go func() {
		defer close(schedDone)
		schedule.run(start, stop, fabric, logf)
	}()

	time.Sleep(duration)
	close(stop)
	wg.Wait()
	<-schedDone

	// Lifecycle GC accounting. Finalization gossip is asynchronous, so give
	// the cluster a short window to settle onto the bound before reading the
	// retained-state count.
	states := cluster.MaterializedStates()
	if sc.MaxStatesPerKey > 0 {
		settleDeadline := time.Now().Add(2 * time.Second)
		for states > sc.MaxStatesPerKey*keys && time.Now().Before(settleDeadline) {
			time.Sleep(25 * time.Millisecond)
			states = cluster.MaterializedStates()
		}
	}

	verdict := Verdict{
		Scenario:       sc.Name,
		Description:    sc.Description,
		Seed:           seed,
		Stretch:        stretch,
		DurationMS:     time.Since(start).Milliseconds(),
		OpErrors:       int(opErrs.Load()),
		Reconfigs:      int(reconfigs.Load()),
		ReconfigErrors: int(reconfigErrs.Load()),
		Linearizable:   true,
		ServerStates:   states,
		RetiredStates:  cluster.RetiredStates(),
	}
	if sc.MaxStatesPerKey > 0 && states > sc.MaxStatesPerKey*keys {
		verdict.StateBoundExceeded = true
	}
	for k := 0; k < keys; k++ {
		ops := recorders[k].Ops()
		rep := history.Verify(ops, history.CheckOptions{})
		// Report the executed workload, not the checker's (soundly pruned)
		// view: the verdict must reflect how adversarial the run was.
		incomplete := 0
		for _, op := range ops {
			if op.Incomplete {
				incomplete++
			}
		}
		kv := KeyVerdict{
			Key:          keyName(k),
			Ops:          len(ops),
			Incomplete:   incomplete,
			Method:       string(rep.Method),
			Steps:        rep.Steps,
			Note:         rep.Note,
			Linearizable: rep.Linearizable,
		}
		for _, viol := range rep.Violations {
			kv.Violations = append(kv.Violations, viol.Error())
		}
		verdict.Ops += len(ops)
		verdict.Incomplete += incomplete
		if !rep.Linearizable {
			verdict.Linearizable = false
		}
		verdict.Keys = append(verdict.Keys, kv)
	}
	logf("chaos: %s: %d ops (%d incomplete, %d op errors, %d reconfigs) linearizable=%v states=%d retired=%d seed=%d",
		sc.Name, verdict.Ops, verdict.Incomplete, verdict.OpErrors, verdict.Reconfigs,
		verdict.Linearizable, verdict.ServerStates, verdict.RetiredStates, seed)
	return verdict, nil
}
