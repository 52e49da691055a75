package ares

import (
	"context"
	"sync/atomic"

	"github.com/ares-storage/ares/internal/cfg"
	"github.com/ares-storage/ares/internal/core"
	"github.com/ares-storage/ares/internal/obs"
	"github.com/ares-storage/ares/internal/ops"
	"github.com/ares-storage/ares/internal/recon"
	"github.com/ares-storage/ares/internal/spec"
)

// This file binds the hook-based internal/ops HTTP surface to a live Server.
// The admin verbs only read: chain is an ordinary read-config, keystate is
// the host's own introspection. Reconfiguration is a client protocol and
// stays with reconfigurers (ares-cli reconfig, ObjectStore.ReconfigureKey).

// NewOpsServer builds the server's operational HTTP surface — /metrics (the
// process-wide obs registry), pprof, /healthz and the admin verbs — before
// the data plane exists. ares-server binds the ops listener first, so a
// probe can tell "starting" from "dead" while WAL recovery runs. /metrics
// and pprof work immediately (recovery counters are exactly what an
// operator wants to watch during a long replay); /healthz answers 503 and
// the admin verbs answer 400 until bind attaches the started Server.
func NewOpsServer() (surface *ops.Server, bind func(*Server)) {
	var live atomic.Pointer[Server]
	get := func() (*Server, error) {
		if s := live.Load(); s != nil {
			return s, nil
		}
		return nil, ops.BadRequestError{Msg: "server still starting"}
	}
	surface = &ops.Server{
		Registry: obs.Default,
		Ready:    func() bool { return live.Load() != nil },
		Info: func() map[string]any {
			info := map[string]any{}
			if s := live.Load(); s != nil {
				info["id"] = string(s.ID())
				info["addr"] = s.Addr()
			}
			return info
		},
		Admin: ops.AdminHooks{
			Chain: func(ctx context.Context, key string) (any, error) {
				s, err := get()
				if err != nil {
					return nil, err
				}
				return s.adminChain(ctx, key)
			},
			KeyState: func(key string) (any, error) {
				s, err := get()
				if err != nil {
					return nil, err
				}
				return s.adminKeyState(key)
			},
		},
	}
	return surface, func(s *Server) { live.Store(s) }
}

// adminChain reads key's configuration chain through the ordinary
// read-config path, from the key's initial configuration derived from the
// first installed template. The recon client lives for this request only:
// read-config builds no consensus proposer, so it claims no identity.
func (s *Server) adminChain(ctx context.Context, key string) (any, error) {
	templates := s.host.Resolver().Templates()
	if len(templates) == 0 {
		return nil, ops.BadRequestError{Msg: "no configuration template installed on this server"}
	}
	rc, err := recon.NewClient(s.ID(), templates[0].ForKey(key), s.out, core.NewRegistry(), nil, recon.Options{})
	if err != nil {
		return nil, err
	}
	seq, err := rc.ReadConfig(ctx, rc.Sequence())
	if err != nil {
		return nil, err
	}
	return renderChain(key, seq), nil
}

func renderChain(key string, seq cfg.Sequence) map[string]any {
	entries := make([]map[string]any, len(seq))
	for i, e := range seq {
		status := "pending"
		if e.Status == cfg.Finalized {
			status = "finalized"
		}
		entries[i] = map[string]any{
			"id":     string(e.Cfg.ID),
			"spec":   spec.Format(e.Cfg),
			"status": status,
		}
	}
	return map[string]any{
		"key":   key,
		"mu":    seq.Mu(),
		"nu":    seq.Nu(),
		"chain": entries,
	}
}

// adminKeyState reports the server-local view: host-wide state counters
// plus the key's derived initial configuration and any locally-recorded
// retirement redirect for it.
func (s *Server) adminKeyState(key string) (any, error) {
	res := s.host.Resolver()
	exact, templates := res.Known()
	info := map[string]any{
		"key":                 key,
		"server":              string(s.ID()),
		"materialized_states": s.host.MaterializedStates(),
		"retired_states":      s.host.RetiredStates(),
		"service_instances":   s.host.ServiceInstances(),
		"storage_bytes":       s.host.StorageBytes(),
		"known_configs":       exact,
		"known_templates":     templates,
		"retired_configs":     s.host.RetiredConfigs(),
	}
	if ts := res.Templates(); len(ts) > 0 {
		c0 := ts[0].ForKey(key)
		info["initial_config"] = string(c0.ID)
		// Follow the local tombstone trail so an operator sees where the
		// chain went without a quorum round.
		trail, cycle := retiredTrail(c0.ID, func(id cfg.ID) (cfg.ID, bool) {
			return res.RetiredSuccessor(key, id)
		})
		if len(trail) > 0 {
			info["retired_trail"] = trail
		}
		if cycle {
			info["retired_trail_cycle"] = true
		}
	}
	return info, nil
}

// retiredTrail follows successor records from id. They need not point
// forward — a backward pointer can name an older configuration — so the walk
// ends at the first repeated ID, which it appends and reports as a cycle.
func retiredTrail(id cfg.ID, successor func(cfg.ID) (cfg.ID, bool)) (trail []string, cycle bool) {
	seen := map[cfg.ID]bool{id: true}
	for {
		next, ok := successor(id)
		if !ok || next == "" {
			return trail, false
		}
		trail = append(trail, string(next))
		if seen[next] {
			return trail, true
		}
		seen[next] = true
		id = next
	}
}
