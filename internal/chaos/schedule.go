// Package chaos is the adversarial execution harness: a deterministic,
// seed-reproducible fault scheduler driving declarative fault schedules
// against the simulated network while concurrent multi-key workloads and a
// background reconfigurer exercise the ARES protocols, ending every run in
// a value-based linearizability verdict (internal/history.Verify).
//
// The determinism contract: a schedule is a pure value — a list of
// (virtual-time offset, mutation) pairs applied in offset order — and all
// probabilistic behaviour (message drop/duplication sampling, delay draws)
// flows from the single RNG seeded by Options.Seed. Re-running a scenario
// with the same seed replays the same fault timeline and the same fault
// sampling; goroutine interleaving still varies with the OS scheduler, so
// a replay reproduces the adversarial conditions rather than a bit-exact
// execution. On any failure the runner reports the scenario name and seed,
// and the ARES_CHAOS_SEED environment variable (see SeedFromEnv) pins the
// seed for replay.
package chaos

import (
	"fmt"
	"sort"
	"time"

	"github.com/ares-storage/ares/internal/transport"
	"github.com/ares-storage/ares/internal/types"
)

// EventKind names one fault-schedule mutation.
type EventKind string

// The schedule mutations, each mapping to a Simnet hook.
const (
	// EvPartition cuts every link between groups A and B, both directions.
	EvPartition EventKind = "partition"
	// EvHeal undoes a partition of the same groups.
	EvHeal EventKind = "heal"
	// EvBlockLink blocks the one-way link From → To.
	EvBlockLink EventKind = "block-link"
	// EvUnblockLink re-opens the one-way link From → To.
	EvUnblockLink EventKind = "unblock-link"
	// EvCrash crash-fails Target (a kill: the network stops delivering to
	// and from it; see Simnet.Crash).
	EvCrash EventKind = "crash"
	// EvRestart recovers Target like a real process restart: the fabric's
	// restart hook discards the victim's volatile state and rebuilds it —
	// from WAL + snapshot recovery on a durable cluster, amnesiac otherwise
	// — before the network resumes delivery. It requires a restart hook;
	// schedules driven against a bare network must use
	// EvRestartPreserveState.
	EvRestart EventKind = "restart"
	// EvRestartPreserveState recovers Target with its in-memory state
	// untouched — the process never really died, it was only unreachable.
	// This is the old EvRestart behavior, kept for amnesia-free scenarios;
	// it says nothing about durability.
	EvRestartPreserveState EventKind = "restart-preserve-state"
	// EvSnapshot has Target write a full durability snapshot (meta plus
	// every stripe) and compact its logs, so a later EvRestart recovers from
	// snapshot + log tail rather than from the log alone. It requires a
	// snapshot hook.
	EvSnapshot EventKind = "snapshot"
	// EvLinkFaults installs Faults on the one-way link From → To.
	EvLinkFaults EventKind = "link-faults"
	// EvDefaultFaults installs Faults on every link without an override.
	EvDefaultFaults EventKind = "default-faults"
	// EvClearFaults removes all drop/dup/delay faults (links stay blocked
	// and crashed processes stay crashed — those have their own events).
	EvClearFaults EventKind = "clear-faults"
)

// Event is one timed mutation of the network. At is an offset on the run's
// virtual timeline (0 = workload start); which other fields matter depends
// on Kind.
type Event struct {
	At   time.Duration `json:"at"`
	Kind EventKind     `json:"kind"`

	// A and B are the process groups of a partition/heal.
	A []types.ProcessID `json:"a,omitempty"`
	B []types.ProcessID `json:"b,omitempty"`
	// From and To address a one-way link.
	From types.ProcessID `json:"from,omitempty"`
	To   types.ProcessID `json:"to,omitempty"`
	// Target is the process of a crash/restart/snapshot.
	Target types.ProcessID `json:"target,omitempty"`
	// Faults parameterizes link-faults and default-faults events.
	Faults transport.LinkFaults `json:"faults,omitempty"`
}

// Fabric is the execution substrate a schedule mutates: the simulated
// network plus the hook through which a restart rebuilds a server process.
type Fabric struct {
	// Net is the simulated network every fault lands on.
	Net *transport.Simnet
	// Restart rebuilds the process for an EvRestart: the runner wires it to
	// core.Cluster.RestartHost, which discards the old host object (all
	// volatile keyed state) and recovers from the durability directory — or
	// comes back amnesiac on a non-durable cluster. Nil means EvRestart
	// cannot be honored (schedules against a bare network use
	// EvRestartPreserveState instead).
	Restart func(types.ProcessID) error
	// Snapshot takes a durability snapshot of one server for an EvSnapshot:
	// the runner wires it to the host's Durability().Snapshot(). Nil means
	// EvSnapshot cannot be honored.
	Snapshot func(types.ProcessID) error
}

// apply executes the mutation against the fabric.
func (e Event) apply(f Fabric) error {
	net := f.Net
	switch e.Kind {
	case EvPartition:
		net.Partition(e.A, e.B)
	case EvHeal:
		net.Heal(e.A, e.B)
	case EvBlockLink:
		net.BlockLink(e.From, e.To)
	case EvUnblockLink:
		net.UnblockLink(e.From, e.To)
	case EvCrash:
		net.Crash(e.Target)
	case EvRestart:
		// Rebuild the process first, then resume delivery: a recovered host
		// must replay its logs before its first envelope, exactly like a real
		// server replaying before its listener accepts.
		if f.Restart == nil {
			return fmt.Errorf("chaos: EvRestart for %s needs a restart hook (use EvRestartPreserveState for bare-network schedules)", e.Target)
		}
		if err := f.Restart(e.Target); err != nil {
			return fmt.Errorf("chaos: restarting %s: %w", e.Target, err)
		}
		net.Restart(e.Target)
	case EvRestartPreserveState:
		net.Restart(e.Target)
	case EvSnapshot:
		if f.Snapshot == nil {
			return fmt.Errorf("chaos: EvSnapshot for %s needs a snapshot hook", e.Target)
		}
		if err := f.Snapshot(e.Target); err != nil {
			return fmt.Errorf("chaos: snapshotting %s: %w", e.Target, err)
		}
	case EvLinkFaults:
		net.SetLinkFaults(e.From, e.To, e.Faults)
	case EvDefaultFaults:
		net.SetDefaultLinkFaults(e.Faults)
	case EvClearFaults:
		net.ClearLinkFaults()
	default:
		return fmt.Errorf("chaos: unknown event kind %q", e.Kind)
	}
	return nil
}

// String renders the event for logs.
func (e Event) String() string {
	switch e.Kind {
	case EvPartition, EvHeal:
		return fmt.Sprintf("t=%v %s %v | %v", e.At, e.Kind, e.A, e.B)
	case EvBlockLink, EvUnblockLink:
		return fmt.Sprintf("t=%v %s %s → %s", e.At, e.Kind, e.From, e.To)
	case EvCrash, EvRestart, EvRestartPreserveState, EvSnapshot:
		return fmt.Sprintf("t=%v %s %s", e.At, e.Kind, e.Target)
	case EvLinkFaults:
		return fmt.Sprintf("t=%v %s %s → %s drop=%.2f dup=%.2f extra=[%v,%v]",
			e.At, e.Kind, e.From, e.To, e.Faults.Drop, e.Faults.Dup, e.Faults.Extra.Min, e.Faults.Extra.Max)
	case EvDefaultFaults:
		return fmt.Sprintf("t=%v %s drop=%.2f dup=%.2f extra=[%v,%v]",
			e.At, e.Kind, e.Faults.Drop, e.Faults.Dup, e.Faults.Extra.Min, e.Faults.Extra.Max)
	default:
		return fmt.Sprintf("t=%v %s", e.At, e.Kind)
	}
}

// Schedule is a declarative fault timeline. Order in the slice is
// irrelevant; events fire in At order.
type Schedule []Event

// sorted returns the events in firing order without mutating s.
func (s Schedule) sorted() Schedule {
	out := make(Schedule, len(s))
	copy(out, s)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// stretch scales every event offset by factor (for soak runs that stretch
// scenario durations).
func (s Schedule) stretch(factor float64) Schedule {
	if factor == 1 {
		return s
	}
	out := make(Schedule, len(s))
	copy(out, s)
	for i := range out {
		out[i].At = time.Duration(float64(out[i].At) * factor)
	}
	return out
}

// run applies the schedule on the virtual timeline anchored at start,
// stopping early when stop closes. Applied events are reported through
// logf. It is the scheduler's goroutine body; deterministic given the
// schedule (timer jitter shifts an event by scheduler latency, never
// reorders it: events are applied in At order regardless).
func (s Schedule) run(start time.Time, stop <-chan struct{}, f Fabric, logf func(string, ...any)) {
	for _, ev := range s.sorted() {
		wait := time.Until(start.Add(ev.At))
		if wait > 0 {
			select {
			case <-stop:
				return
			case <-time.After(wait):
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		if err := ev.apply(f); err != nil {
			logf("chaos: %v", err)
			continue
		}
		logf("chaos: %s", ev)
	}
}
