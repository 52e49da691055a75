package core

// Host durability: EnableDurability opens the keystate durability layer for
// this host, registers every keyed service's keystate.Family with it,
// recovers snapshot + log tail BEFORE the host serves traffic, and wires the
// configuration lifecycle (installs, retirements) into the meta log. The
// resolver is the host's meta state: its configurations, templates,
// tombstones, and successor records snapshot and restore as one blob.

import (
	"errors"
	"fmt"
	"path/filepath"

	"github.com/ares-storage/ares/internal/cfg"
	"github.com/ares-storage/ares/internal/keystate"
	"github.com/ares-storage/ares/internal/node"
	"github.com/ares-storage/ares/internal/transport"
	"github.com/ares-storage/ares/internal/types"
)

// hostMeta adapts the host's resolver (and retire bookkeeping) to
// keystate.DurableMeta.
type hostMeta struct {
	h *Host
}

var _ keystate.DurableMeta = (*hostMeta)(nil)

// ReplayInstall re-registers one journaled configuration; first-wins, so
// replaying over a snapshot-restored resolver is idempotent.
func (m *hostMeta) ReplayInstall(payload []byte) error {
	var c cfg.Configuration
	if err := transport.Unmarshal(payload, &c); err != nil {
		return err
	}
	m.h.cfgs.Add(c)
	return nil
}

// ReplayRetire re-applies one journaled retirement: re-register the
// finalized successor when this server never had it installed (the archive
// needs it to redirect lagging clients), then tombstone the pair. No service
// fan-out runs — meta replay precedes state restore, so the tombstone simply
// keeps the retired pair's state from ever rematerializing.
func (m *hostMeta) ReplayRetire(key, configID string, payload []byte) error {
	var next cfg.Entry
	if err := transport.Unmarshal(payload, &next); err != nil {
		return err
	}
	if _, ok := m.h.cfgs.ResolveConfig(key, next.Cfg.ID); !ok {
		m.h.cfgs.Add(next.Cfg)
	}
	m.h.cfgs.Retire(key, cfg.ID(configID), next.Cfg.ID)
	return nil
}

// SnapshotMeta implements keystate.DurableMeta.
func (m *hostMeta) SnapshotMeta() ([]byte, error) {
	return transport.Marshal(m.h.cfgs.Export())
}

// RestoreMeta implements keystate.DurableMeta.
func (m *hostMeta) RestoreMeta(blob []byte) error {
	var s cfg.ResolverState
	if err := transport.Unmarshal(blob, &s); err != nil {
		return err
	}
	m.h.cfgs.Import(s)
	return nil
}

// EnableDurability attaches a durability layer rooted at dir to this host:
// every keyed service journals its mutations there, configuration installs
// and retirements go to the meta log, and state recovered from a previous
// run is replayed before this call returns. Call before the host's transport
// starts answering envelopes. The returned stats describe the recovery pass.
func (h *Host) EnableDurability(dir string, opts ...keystate.DurOption) (keystate.RecoveryStats, error) {
	if h.dur != nil {
		return keystate.RecoveryStats{}, errors.New("core: durability already enabled")
	}
	d, err := keystate.OpenDurability(dir, opts...)
	if err != nil {
		return keystate.RecoveryStats{}, err
	}
	for _, f := range h.families {
		d.Register(f)
	}
	d.SetMeta(&hostMeta{h: h})
	stats, err := d.Recover()
	if err != nil {
		d.Close()
		return stats, fmt.Errorf("core: recovering %s from %s: %w", h.ID(), dir, err)
	}
	h.dur = d
	// Retirements journal before they mutate memory; the record carries the
	// full successor entry so a restart can re-register it.
	h.recon.SetPreRetire(func(key, configID string, next cfg.Entry) error {
		blob, err := transport.Marshal(next)
		if err != nil {
			return err
		}
		return d.AppendRetire(key, configID, blob)
	})
	// Heal the crash window between a finalized write-config landing in a
	// stripe log and its retire record landing in the meta log, then let the
	// background snapshot scheduler run.
	h.recon.CompleteRetirements()
	d.Start()
	return stats, nil
}

// Durability returns the host's durability layer, nil when not enabled.
func (h *Host) Durability() *keystate.Durability { return h.dur }

// Close releases the host's durability layer (flushing queued appends); a
// host without durability closes trivially.
func (h *Host) Close() error {
	if h.dur == nil {
		return nil
	}
	return h.dur.Close()
}

// EnableDurability turns the cluster durable: every current host (and every
// host added later) journals under dir/<id> and recovers from it on restart.
// The bootstrap configuration is re-installed through the now-journaling
// path so it resolves after a restart even though NewCluster installed it
// before durability existed. Call right after NewCluster, before traffic.
func (c *Cluster) EnableDurability(dir string, opts ...keystate.DurOption) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.durable = true
	c.durDir = dir
	c.durOpts = opts
	for id, h := range c.hosts {
		if h.Durability() != nil {
			continue
		}
		if _, err := h.EnableDurability(filepath.Join(dir, string(id)), opts...); err != nil {
			return err
		}
		if err := h.InstallConfiguration(c.initial); err != nil {
			return err
		}
	}
	return nil
}

// RestartHost simulates a real process crash-restart of one server: the old
// host object (and ALL its volatile keyed state) is discarded, a fresh host
// recovers from its durability directory — or starts amnesiac when the
// cluster is not durable — re-installs the bootstrap configuration, and
// replaces the old handler on the network. This is what the chaos EvRestart
// drives; contrast Simnet.Restart alone, which merely clears the crash flag
// and would hand the dead process its memory back.
func (c *Cluster) RestartHost(id types.ProcessID) (*Host, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	old, ok := c.hosts[id]
	if !ok {
		return nil, fmt.Errorf("core: restarting unknown host %s", id)
	}
	// Release the old host's log files before the successor opens them. A
	// kill -9 has no such flush, but the WAL's append path already made every
	// acknowledged record durable (that is the test in the torn-tail suite);
	// Close here is about file handles, not correctness.
	if err := old.Close(); err != nil {
		return nil, fmt.Errorf("core: closing crashed host %s: %w", id, err)
	}
	h := NewHost(node.New(id), c.network.Client(id))
	if c.durable {
		if _, err := h.EnableDurability(filepath.Join(c.durDir, string(id)), c.durOpts...); err != nil {
			return nil, fmt.Errorf("core: recovering host %s: %w", id, err)
		}
	}
	if err := h.InstallConfiguration(c.initial); err != nil {
		return nil, err
	}
	c.network.Register(id, h.Node())
	c.hosts[id] = h
	return h, nil
}
