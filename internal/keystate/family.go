package keystate

import (
	"fmt"
	"sync/atomic"

	"github.com/ares-storage/ares/internal/cfg"
	"github.com/ares-storage/ares/internal/types"
)

// State is the per-(key, configuration) protocol state a Family keeps. A
// state guards itself (handlers, replay and snapshots reach it
// concurrently), and its three methods are everything durability needs of
// it.
type State interface {
	// Replay re-applies one journaled mutation; op is the byte the live
	// handler journaled it under. It must be side-effect free beyond the
	// state (no forwarding, no gossip) and tolerate re-application over a
	// restored snapshot.
	Replay(op byte, payload []byte) error
	// Snapshot encodes the whole state as one blob.
	Snapshot() ([]byte, error)
	// Restore merges a snapshot blob into the state without regressing it:
	// recovery may already have replayed newer records into it.
	Restore(blob []byte) error
}

// Family owns one keyed service's per-(key, config) states: first-touch
// materialization, the write-ahead journal, snapshot and restore, and
// retirement. It is the one DurableService implementation; a service
// supplies only build, which checks the configuration (its algorithm) and
// returns a fresh state, and the State methods of what build returns.
type Family[S State] struct {
	name    string
	self    types.ProcessID
	cfgs    cfg.Source
	build   func(c cfg.Configuration, index int) (S, error)
	states  *Map[S]
	journal atomic.Pointer[Journal]
}

// NewFamily returns the family named name (its records' family, and the
// service's name on nodes) for server self. build runs once per (key,
// config) on first touch, after the configuration resolved and self was
// found among its servers at index.
func NewFamily[S State](name string, self types.ProcessID, cfgs cfg.Source, build func(c cfg.Configuration, index int) (S, error)) *Family[S] {
	return &Family[S]{name: name, self: self, cfgs: cfgs, build: build, states: New[S](DefaultShards)}
}

// State returns the state under (key, configID), materializing it on first
// touch. A retired pair reports cfg.ErrRetired with the superseding
// configuration, so a lagging client is redirected back through read-config
// instead of silently rematerializing fresh v₀ state. An unresolvable pair —
// unknown configuration, or a key the configuration was not derived for —
// reports cfg.ErrUnknownConfig. Neither, nor a non-member server or a build
// error, installs anything. The steady state is one stripe RLock; the
// tombstone and configuration lookups run only on first touch.
func (f *Family[S]) State(key, configID string) (S, error) {
	return f.states.GetOrCreate(Ref{Key: key, Config: configID}, func() (S, error) {
		return f.materialize(key, configID)
	})
}

func (f *Family[S]) materialize(key, configID string) (S, error) {
	var zero S
	if rs, ok := f.cfgs.(cfg.RetirementSource); ok {
		if succ, retired := rs.RetiredSuccessor(key, cfg.ID(configID)); retired {
			return zero, fmt.Errorf("%s at %s: %w",
				f.name, f.self, &cfg.RetiredError{Key: key, Config: cfg.ID(configID), Successor: succ})
		}
	}
	c, ok := f.cfgs.ResolveConfig(key, cfg.ID(configID))
	if !ok {
		return zero, fmt.Errorf("%w: %s %s (key %q) at %s", cfg.ErrUnknownConfig, f.name, configID, key, f.self)
	}
	index, ok := c.ServerIndex(f.self)
	if !ok {
		return zero, fmt.Errorf("%s: server %s is not a member of %s", f.name, f.self, c.ID)
	}
	return f.build(c, index)
}

// Journal write-ahead-logs one mutation of (key, configID) under op before
// the caller applies it, and returns the release the caller must run once
// the mutation applied (Journal.Append's contract). Without an attached
// journal it is a no-op.
func (f *Family[S]) Journal(key, configID string, op byte, payload []byte) (release func(), err error) {
	j := f.journal.Load()
	if j == nil {
		return noRelease, nil
	}
	return j.Append(key, configID, op, payload)
}

func noRelease() {}

// Get returns the state under (key, configID) without materializing it.
func (f *Family[S]) Get(key, configID string) (S, bool) {
	return f.states.Get(Ref{Key: key, Config: configID})
}

// Range calls fn for every materialized state until fn returns false.
func (f *Family[S]) Range(fn func(ref Ref, st S) bool) { f.states.Range(fn) }

// Len counts the materialized states.
func (f *Family[S]) Len() int { return f.states.Len() }

// Retire drops the state under (key, configID), reporting whether one
// existed. The lifecycle GC calls it once the configuration's finalized
// successor proves it quiescent; the resolver's tombstone keeps the pair
// from rematerializing.
func (f *Family[S]) Retire(key, configID string) bool {
	return f.states.Delete(Ref{Key: key, Config: configID})
}

// DurableFamily implements DurableService.
func (f *Family[S]) DurableFamily() string { return f.name }

// SetJournal implements DurableService; recovery attaches the journal once
// it completed, so replay never re-journals.
func (f *Family[S]) SetJournal(j *Journal) { f.journal.Store(j) }

// ReplayApply implements DurableService.
func (f *Family[S]) ReplayApply(key, configID string, op byte, payload []byte) error {
	st, err := f.State(key, configID)
	if err != nil {
		return err
	}
	return st.Replay(op, payload)
}

// SnapshotStates implements DurableService.
func (f *Family[S]) SnapshotStates(emit func(key, configID string, blob []byte) error) error {
	var err error
	f.states.Range(func(ref Ref, st S) bool {
		var blob []byte
		if blob, err = st.Snapshot(); err == nil {
			err = emit(ref.Key, ref.Config, blob)
		}
		return err == nil
	})
	return err
}

// RestoreState implements DurableService.
func (f *Family[S]) RestoreState(key, configID string, blob []byte) error {
	st, err := f.State(key, configID)
	if err != nil {
		return err
	}
	return st.Restore(blob)
}
