// Package recon implements the ARES reconfiguration service (§4.1): the
// server-side nextC pointer protocol (Alg. 6), the sequence-traversal
// actions read-next-config / put-config / read-config (Alg. 4), and the
// four-phase reconfig operation (Alg. 5) with both the value-through-client
// state transfer of Alg. 5 and the direct server-to-server transfer of §5
// (ARES-TREAS).
//
// A node hosts a single pointer Service for the whole keyspace: every
// (key, config) pair owns its own nextC variable, lazily created in a
// striped-lock map — each key's configuration chain advances independently
// (the paper's per-object reconfiguration), without per-key installation.
//
// The pointer service also drives configuration lifecycle GC. The paper's
// finalization step (Algs. 4–5) is the retirement signal: once a
// configuration's successor is finalized, update-config has already
// propagated the freshest state forward, so the old configuration is
// quiescent and its per-key server state — DAP registers and lists, the
// consensus acceptor, the pointer itself — is reclaimed. A compact tombstone
// in the resolver ("superseded by c′") plus a per-key archive of the latest
// finalized successor keep lagging clients correct: their read-config calls
// are answered from the archive (jumping them toward the live window) and
// their DAP calls get an explicit retryable cfg.ErrRetired instead of
// silently rematerializing fresh v₀ state. Finalization is gossiped once to
// the configuration's other members so servers missed by the quorum-bounded
// put-config still retire their state.
package recon

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ares-storage/ares/internal/cfg"
	"github.com/ares-storage/ares/internal/keystate"
	"github.com/ares-storage/ares/internal/node"
	"github.com/ares-storage/ares/internal/transport"
	"github.com/ares-storage/ares/internal/types"
)

// ServiceName keys the reconfiguration pointer service on nodes.
const ServiceName = "recon"

// Message types (Alg. 6).
const (
	msgReadConfig  = "read-config"
	msgWriteConfig = "write-config"
)

// gossipTimeout bounds the best-effort finalization fan-out to a
// configuration's other members; maxGossipFanouts bounds how many such
// fan-outs run concurrently per service.
const (
	gossipTimeout    = 2 * time.Second
	maxGossipFanouts = 16
)

// Wire bodies. readConfigResp has a binary encoding (codec.go); a reply
// without a successor carries no entry.
type (
	readConfigResp struct {
		HasNext bool
		Next    cfg.Entry
	}
	writeConfigReq struct {
		Next cfg.Entry
	}
)

// pointer holds one server's nextC variable for one (key, configuration):
// the pointer to the following configuration in that key's global sequence
// GL, with its status. nextC starts at ⊥ and, once finalized, never changes
// (Lemma 46).
type pointer struct {
	mu      sync.Mutex
	hasNext bool
	next    cfg.Entry
}

// RetireFunc is the lifecycle fan-out a host registers: retire every keyed
// service's state for (key, configID), superseded by next. It returns how
// many state entries were dropped (for the retired_states accounting).
type RetireFunc func(key, configID string, next cfg.Entry) int

// Service hosts every nextC pointer of one node.
type Service struct {
	self types.ProcessID
	cfgs cfg.Source
	// states journals write-config transitions before they apply once
	// durability attaches a journal (see durable.go).
	states *keystate.Family[*pointer]

	// Lifecycle wiring (SetLifecycle): the host's retire fan-out, the
	// server's own endpoint for finalization gossip, and the retired-state
	// counter. gc is false until a host opts in — a bare pointer service
	// (tests, custom assemblies) keeps every pointer forever.
	gc       bool
	onRetire RetireFunc
	rpc      transport.Client
	retired  atomic.Int64
	sends    sync.WaitGroup
	// preRetire is the host's hook that journals a retirement before it
	// mutates memory (see durable.go); nil for in-memory operation.
	preRetire PreRetireFunc
	// gossipSlots caps concurrent gossip fan-outs. Gossip is best effort
	// (client traversals re-propagate finalizations anyway), so under
	// saturation — e.g. churn with an unreachable member holding slots for
	// the full timeout — further retirements skip gossip instead of piling
	// up goroutines.
	gossipSlots chan struct{}
}

// NewService returns the node-wide pointer service for server self; every
// per-(key, config) pointer starts at nextC = ⊥ on first touch.
func NewService(self types.ProcessID, cfgs cfg.Source) *Service {
	return &Service{
		self: self,
		cfgs: cfgs,
		states: keystate.NewFamily(ServiceName, self, cfgs, func(cfg.Configuration, int) (*pointer, error) {
			return &pointer{}, nil
		}),
		gossipSlots: make(chan struct{}, maxGossipFanouts),
	}
}

// SetLifecycle enables finalization-driven GC: onRetire is invoked exactly
// once per locally-observed retirement of a (key, config) pair, and rpc —
// when non-nil — is used to gossip the finalization to the configuration's
// other members (put-config only reaches a quorum; gossip closes the gap so
// stragglers retire too). Lifecycle requires the service's cfg.Source to
// implement cfg.Retirer (the standard Resolver does); otherwise retirement
// is skipped entirely.
func (s *Service) SetLifecycle(rpc transport.Client, onRetire RetireFunc) {
	s.gc = true
	s.rpc = rpc
	s.onRetire = onRetire
}

var _ node.KeyedService = (*Service)(nil)

// Family returns the service's per-(key, config) pointers, for the host's
// durability and retirement wiring.
func (s *Service) Family() *keystate.Family[*pointer] { return s.states }

// archived answers a message addressed to a retired (key, configID): the
// key's latest recorded successor, resolved back to its full configuration.
// No per-walk archive exists — the tombstone is a hash, the successor is one
// ID per key, and the configuration itself lives in the resolver (the latest
// finalized configuration is by construction not retired, hence still
// registered or template-derivable). ok is false when the pair is not
// retired, or — transiently, mid-gossip — when the successor cannot be
// resolved yet; the caller then falls through to the RetiredError path and
// the client retries.
func (s *Service) archived(key, configID string) (cfg.Entry, bool) {
	rs, lifecycle := s.cfgs.(cfg.RetirementSource)
	if !lifecycle {
		return cfg.Entry{}, false
	}
	succ, retired := rs.RetiredSuccessor(key, cfg.ID(configID))
	if !retired || succ == "" || succ == cfg.ID(configID) {
		// No recorded successor, or the key's latest-successor record has
		// (through an out-of-order retirement echo) landed on the queried
		// configuration itself. Serving "next(c) = c" would loop a client's
		// traversal forever; fail the call instead — the client retries
		// against the quorum's other (healthy) members, and the record
		// heals on the key's next retirement.
		return cfg.Entry{}, false
	}
	c, ok := s.cfgs.ResolveConfig(key, succ)
	if !ok {
		return cfg.Entry{}, false
	}
	return cfg.Entry{Cfg: c, Status: cfg.Finalized}, true
}

// HandleKeyed implements node.KeyedService.
func (s *Service) HandleKeyed(_ types.ProcessID, key, configID, msgType string, payload []byte) (any, error) {
	// Retired configurations are served from the archive: read-config
	// returns the latest finalized successor (the chain compacted past its
	// quiescent prefix), and write-config is a no-op ACK — a finalized
	// pointer is immutable, and the retired state behind it is gone.
	if latest, ok := s.archived(key, configID); ok {
		switch msgType {
		case msgReadConfig:
			return readConfigResp{HasNext: true, Next: latest}, nil
		case msgWriteConfig:
			// A finalized pointer is immutable and the state behind it is
			// gone; acknowledge so sequence-propagating traversals complete.
			return nil, nil // ACK
		default:
			return nil, fmt.Errorf("recon: unknown message type %q", msgType)
		}
	}

	st, err := s.states.State(key, configID)
	if err != nil {
		// Lost the race with a concurrent retirement: answer from the
		// archive after all rather than bouncing the client.
		if cfg.IsRetired(err) {
			if latest, ok := s.archived(key, configID); ok && msgType == msgReadConfig {
				return readConfigResp{HasNext: true, Next: latest}, nil
			}
		}
		return nil, err
	}
	switch msgType {
	case msgReadConfig:
		st.mu.Lock()
		defer st.mu.Unlock()
		return readConfigResp{HasNext: st.hasNext, Next: st.next}, nil
	case msgWriteConfig:
		var req writeConfigReq
		if err := transport.Unmarshal(payload, &req); err != nil {
			return nil, err
		}
		// The journal span covers the retire below too: its nested meta-log
		// append is deliberately gate-free (see keystate.AppendRetire), so
		// snapshot rotation can never slip between this record and the
		// retirement it triggers.
		release, err := s.states.Journal(key, configID, opWriteConfig, payload)
		if err != nil {
			return nil, err
		}
		defer release()
		st.mu.Lock()
		// Alg. 6 lines 10–11: accept when nextC is ⊥ or still pending. A
		// finalized pointer is immutable.
		finalizedNow := false
		if !st.hasNext || st.next.Status == cfg.Pending {
			if st.hasNext && !st.next.Cfg.Equal(req.Next.Cfg) {
				st.mu.Unlock()
				// Consensus guarantees a unique successor; a different
				// configuration here is a protocol violation worth surfacing.
				return nil, fmt.Errorf("recon: conflicting next configuration %s (have %s)",
					req.Next.Cfg.ID, st.next.Cfg.ID)
			}
			st.next = req.Next
			st.hasNext = true
			finalizedNow = req.Next.Status == cfg.Finalized
		}
		st.mu.Unlock()
		if finalizedNow {
			// The pending → finalized transition is the paper's retirement
			// signal for this configuration: its state has propagated to the
			// finalized successor and it is quiescent from here on.
			s.retire(key, configID, req.Next)
		}
		return nil, nil // ACK
	default:
		return nil, fmt.Errorf("recon: unknown message type %q", msgType)
	}
}

// retire garbage-collects (key, configID) after its successor finalized:
// archive the successor, tombstone the pair in the resolver (which also
// prunes the concrete configuration), drop the pointer state, fan out to the
// host's other keyed services, and gossip the finalization to the
// configuration's remaining members.
func (s *Service) retire(key, configID string, next cfg.Entry) {
	if !s.gc {
		return // lifecycle not enabled; keep state
	}
	ret, ok := s.cfgs.(cfg.Retirer)
	if !ok {
		return // lifecycle not supported by this source; keep state
	}
	// Journal the retirement (with its full successor entry) before any
	// in-memory lifecycle mutation, so recovery replays it in meta-log order.
	// A hook failure is survivable: the finalized write-config record is
	// already journaled, and CompleteRetirements re-derives the retirement on
	// the next recovery.
	if s.preRetire != nil {
		_ = s.preRetire(key, configID, next)
	}
	// Capture the member set before the resolver prunes the configuration.
	var peers []types.ProcessID
	if c, resolved := s.cfgs.ResolveConfig(key, cfg.ID(configID)); resolved {
		peers = c.Servers
	}
	// The archive serves read-config on retired pairs by resolving the
	// key's successor. When the chain moved to a different server set, this
	// server never had the successor installed — register it from the
	// finalized entry (which carries the full configuration) so lagging
	// clients can still be redirected. First-wins, and membership is still
	// checked at materialization, so a non-member server only gains routing
	// knowledge, never servable state.
	if _, resolvable := s.cfgs.ResolveConfig(key, next.Cfg.ID); !resolvable {
		if adder, ok := s.cfgs.(interface{ Add(cfg.Configuration) bool }); ok {
			adder.Add(next.Cfg)
		}
	}
	if !ret.Retire(key, cfg.ID(configID), next.Cfg.ID) {
		return // already retired (idempotent replays, gossip echoes)
	}
	if s.states.Retire(key, configID) {
		s.retired.Add(1)
	}
	if s.onRetire != nil {
		s.retired.Add(int64(s.onRetire(key, configID, next)))
	}
	s.gossip(key, configID, next, peers)
}

// gossip forwards the finalized successor entry to the configuration's other
// members, best effort. put-config only guarantees a quorum saw the
// finalization; this one-shot fan-out (each server forwards only on its own
// pending → finalized transition, so the wave self-quenches) lets the
// remaining members retire their state too instead of leaking it forever.
func (s *Service) gossip(key, configID string, next cfg.Entry, peers []types.ProcessID) {
	if s.rpc == nil {
		return
	}
	targets := make([]types.ProcessID, 0, len(peers))
	for _, p := range peers {
		if p != s.self {
			targets = append(targets, p)
		}
	}
	if len(targets) == 0 {
		return
	}
	select {
	case s.gossipSlots <- struct{}{}:
	default:
		return // saturated: skip, best effort
	}
	s.sends.Add(1)
	go func() {
		defer func() {
			<-s.gossipSlots
			s.sends.Done()
		}()
		body := writeConfigReq{Next: next}
		for _, p := range targets {
			ctx, cancel := context.WithTimeout(context.Background(), gossipTimeout)
			_, _ = transport.InvokeTyped[struct{}](ctx, s.rpc, p,
				transport.Addr{Service: ServiceName, Key: key, Config: configID, Type: msgWriteConfig},
				body)
			cancel()
		}
	}()
}

// WaitGossip blocks until in-flight finalization gossip has drained (tests).
func (s *Service) WaitGossip() { s.sends.Wait() }

// RetiredStates reports how many per-(key, config) state entries this
// server has garbage-collected across all keyed services (pointer entries
// plus the fan-out's count).
func (s *Service) RetiredStates() int64 { return s.retired.Load() }

// Next reports the pointer for (key, configID) (for tests). ok is false when
// the state does not exist and the pair is not retired, or when nextC is
// still ⊥. A retired pointer answers from the archive, exactly as the wire
// read-config does.
func (s *Service) Next(key, configID string) (cfg.Entry, bool) {
	st, found := s.states.Get(key, configID)
	if !found {
		return s.archived(key, configID)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.next, st.hasNext
}
