package core

import (
	"context"
	"fmt"
	"time"

	"github.com/ares-storage/ares/internal/abd"
	"github.com/ares-storage/ares/internal/cfg"
	"github.com/ares-storage/ares/internal/consensus"
	"github.com/ares-storage/ares/internal/keystate"
	"github.com/ares-storage/ares/internal/node"
	"github.com/ares-storage/ares/internal/recon"
	"github.com/ares-storage/ares/internal/transport"
	"github.com/ares-storage/ares/internal/treas"
	"github.com/ares-storage/ares/internal/types"
)

// Control-service constants: every host exposes a node-level "ctl" service
// through which reconfiguration clients provision configurations remotely.
const (
	CtlServiceName = "ctl"
	// CtlConfigKey is the pseudo-configuration the control service is keyed
	// under (it is node-scoped, not configuration-scoped).
	CtlConfigKey = "node"
	msgInstall   = "install"
)

type installReq struct {
	Cfg cfg.Configuration
}

// Host is a server process: a node hosting one keyed service per algorithm
// family, plus a configuration resolver those services materialize
// per-(key, config) state from. Creating a host installs every family
// service and the control service; installing a configuration (or a per-key
// template) only registers it with the resolver — the first message naming a
// (key, config) pair creates its state, so a fresh key costs one map entry
// and zero installation round-trips.
type Host struct {
	node *node.Node
	rpc  transport.Client
	cfgs *cfg.Resolver

	stores []storageReporter
	recon  *recon.Service
	// families holds every keyed service's per-(key, config) states, in
	// registration order: what durability journals, snapshots and restores,
	// what retirement drops, and what MaterializedStates counts.
	families []family

	// dur is the durability layer once EnableDurability ran (nil = in-memory
	// host; see durable.go).
	dur *keystate.Durability
}

// family is what the host needs of a keystate.Family, whatever its state
// type.
type family interface {
	keystate.DurableService
	Len() int
	Retire(key, configID string) bool
}

// storageReporter is satisfied by every store service; it reports the bytes
// of object data at rest (the paper's storage-cost metric).
type storageReporter interface {
	StorageBytes() int
}

// NewHost wraps a node and its outbound endpoint. rpc is used by TREAS
// stores for the §5 server-to-server forwarding.
func NewHost(n *node.Node, rpc transport.Client) *Host {
	h := &Host{node: n, rpc: rpc, cfgs: cfg.NewResolver()}
	n.Install(CtlServiceName, CtlConfigKey, node.ServiceFunc(h.handleCtl))

	// One keyed service per algorithm family, for the whole keyspace: this
	// is the entire service footprint of the node, independent of how many
	// keys or configurations it ends up serving.
	abdSvc := abd.NewService(n.ID(), h.cfgs)
	treasSvc := treas.NewService(n.ID(), h.cfgs, rpc)
	reconSvc := recon.NewService(n.ID(), h.cfgs)
	paxosSvc := consensus.NewService(n.ID(), h.cfgs)
	n.InstallKeyed(abd.ServiceName, abdSvc)
	n.InstallKeyed(treas.ServiceName, treasSvc)
	n.InstallKeyed(recon.ServiceName, reconSvc)
	n.InstallKeyed(consensus.ServiceName, paxosSvc)
	h.stores = []storageReporter{abdSvc, treasSvc}
	h.recon = reconSvc
	h.families = []family{abdSvc.Family(), treasSvc.Family(), reconSvc.Family(), paxosSvc.Family()}

	// Configuration-lifecycle GC: when the pointer service witnesses a
	// finalized successor for (key, c), every family retires its (key, c)
	// state — the resolver's tombstone (written by the pointer service)
	// keeps the pair from rematerializing, so a lagging client's call gets
	// an explicit cfg.ErrRetired redirect instead of fresh v₀ state. The
	// pointer service has already dropped its own entry, so its family
	// reports nothing here.
	reconSvc.SetLifecycle(rpc, func(key, configID string, _ cfg.Entry) int {
		dropped := 0
		for _, f := range h.families {
			if f.Retire(key, configID) {
				dropped++
			}
		}
		return dropped
	})
	registerHostGauges(h)
	return h
}

// Node returns the underlying node (the transport handler to register).
func (h *Host) Node() *node.Node { return h.node }

// ID returns the host's process ID.
func (h *Host) ID() types.ProcessID { return h.node.ID() }

// Resolver returns the host's configuration resolver (for tests and
// introspection).
func (h *Host) Resolver() *cfg.Resolver { return h.cfgs }

func (h *Host) handleCtl(_ types.ProcessID, msgType string, payload []byte) (any, error) {
	switch msgType {
	case msgInstall:
		var req installReq
		if err := transport.Unmarshal(payload, &req); err != nil {
			return nil, err
		}
		return nil, h.InstallConfiguration(req.Cfg)
	default:
		return nil, fmt.Errorf("core: ctl: unknown message type %q", msgType)
	}
}

// InstallConfiguration makes configuration c (or a per-key template — a
// configuration whose ID embeds cfg.KeyPlaceholder) servable by this host:
// it validates c and registers it with the resolver. No services are
// instantiated; per-(key, config) state materializes on the first message
// addressing it, and membership is checked at that point. Installation is
// idempotent (the resolver keeps the first registration).
func (h *Host) InstallConfiguration(c cfg.Configuration) error {
	if c.IsTemplate() {
		if err := cfg.ValidateTemplate(c); err != nil {
			return fmt.Errorf("core: installing template %s on %s: %w", c.ID, h.ID(), err)
		}
	} else if err := c.Validate(); err != nil {
		return fmt.Errorf("core: installing %s on %s: %w", c.ID, h.ID(), err)
	}
	// Journal the install before registering it: a configuration a service
	// journaled mutations against must itself resolve on replay. Re-installs
	// journal too (replay's Add is first-wins, so duplicates are harmless).
	if h.dur != nil {
		blob, err := transport.Marshal(c)
		if err != nil {
			return err
		}
		release, err := h.dur.AppendInstall(blob)
		if err != nil {
			return fmt.Errorf("core: journaling install of %s on %s: %w", c.ID, h.ID(), err)
		}
		defer release()
	}
	if !h.cfgs.Add(c) {
		// Already registered: idempotent when identical, an error when a
		// different configuration claims the same ID — first-wins silently
		// aliasing the newcomer onto old parameters would corrupt routing
		// (e.g. two ObjectStores sharing a template ID with different codes).
		if existing, ok := h.cfgs.Registered(c.ID); ok && !existing.Same(c) {
			return fmt.Errorf("core: installing %s on %s: conflicting configuration already registered under this ID", c.ID, h.ID())
		}
	}
	return nil
}

// StorageBytes sums the object-data bytes at rest across every store
// service hosted here.
func (h *Host) StorageBytes() int {
	total := 0
	for _, s := range h.stores {
		total += s.StorageBytes()
	}
	return total
}

// ServiceInstances reports how many service instances the node hosts —
// constant in the number of keys and configurations served (the keyed
// hosting model's O(1) guarantee, pinned by tests and the bench harness).
func (h *Host) ServiceInstances() int { return h.node.Services() }

// MaterializedStates sums the live (key, config) state entries across every
// keyed service hosted here — the quantity the lifecycle GC keeps
// O(live configurations) instead of O(reconfiguration walks).
func (h *Host) MaterializedStates() int {
	total := 0
	for _, f := range h.families {
		total += f.Len()
	}
	return total
}

// RetiredStates reports how many (key, config) state entries this host has
// garbage-collected since construction.
func (h *Host) RetiredStates() int64 { return h.recon.RetiredStates() }

// RetiredConfigs reports how many (key, config) pairs are tombstoned in the
// host's resolver.
func (h *Host) RetiredConfigs() int { return h.cfgs.RetiredCount() }

// RemoteInstaller returns a recon.Installer that provisions a configuration
// by sending install commands to its servers' control services over rpc. It
// requires an acknowledgement from a quorum of servers: crashed servers
// beyond the quorum are tolerated (they cannot be provisioned, and quorums
// suffice for every subsequent protocol step). This is the
// once-per-configuration cost of reconfiguration; the per-key fan-out of a
// composed store pays it never — templates are installed once and keys
// materialize lazily.
func RemoteInstaller(rpc transport.Client) recon.Installer {
	return func(ctx context.Context, c cfg.Configuration) error {
		// Prefer provisioning every server, but do not hang forever on
		// crashed ones: bound the all-servers wait, then check the acks that
		// did arrive against the quorum.
		installCtx, cancel := context.WithTimeout(ctx, installTimeout)
		defer cancel()
		got, err := transport.Broadcast(installCtx, rpc, c.Servers,
			transport.Phase[struct{}]{Service: CtlServiceName, Config: CtlConfigKey, Type: msgInstall, Body: installReq{Cfg: c}},
			transport.AtLeast[struct{}](len(c.Servers)),
		)
		if need := c.Quorum().Size(); len(got) < need {
			return fmt.Errorf("core: installing %s: %d/%d server acks: %w", c.ID, len(got), need, err)
		}
		return nil
	}
}

// installTimeout bounds RemoteInstaller's wait for acks from every server
// before settling for a quorum. A caller context with an earlier deadline
// wins (tests shorten the wait that way).
const installTimeout = 5 * time.Second
