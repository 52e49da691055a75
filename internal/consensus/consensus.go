// Package consensus implements the external consensus service c.Con that
// ARES attaches to every configuration (§4.1, Definition 41): a single-decree,
// multi-proposer Paxos instance running on the configuration's servers.
//
// ARES uses one instance per (key, configuration) to agree on the next
// configuration in that key's global sequence GL. The service guarantees:
//
//   - Agreement: no two processes decide different values;
//   - Validity: a decided value was proposed by some process;
//   - Termination: every correct proposer eventually decides (ensured here
//     by randomized exponential backoff under contention, the standard
//     partial-synchrony escape from the FLP impossibility).
//
// Values are opaque byte strings; ARES proposes gob-encoded configurations.
// A node hosts a single acceptor Service for the whole keyspace: each
// (key, config) Paxos instance is one lazily-created entry in a striped-lock
// map, so per-key reconfiguration chains need no per-key installation.
package consensus

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"github.com/ares-storage/ares/internal/cfg"
	"github.com/ares-storage/ares/internal/keystate"
	"github.com/ares-storage/ares/internal/node"
	"github.com/ares-storage/ares/internal/quorum"
	"github.com/ares-storage/ares/internal/transport"
	"github.com/ares-storage/ares/internal/types"
)

// ServiceName keys the Paxos acceptor service on nodes.
const ServiceName = "paxos"

// Message types.
const (
	msgPrepare = "prepare"
	msgAccept  = "accept"
	msgDecide  = "decide"
	msgLearn   = "learn"
)

// Ballot orders proposal attempts. Rounds break ties through the proposer
// component, so concurrent proposers never share a ballot.
type Ballot struct {
	Round    int64
	Proposer uint64
}

// Less orders ballots lexicographically on (Round, Proposer).
func (b Ballot) Less(other Ballot) bool {
	if b.Round != other.Round {
		return b.Round < other.Round
	}
	return b.Proposer < other.Proposer
}

// proposerID derives a stable numeric proposer identity from a process ID.
func proposerID(id types.ProcessID) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(id))
	return h.Sum64()
}

// Wire bodies.
type (
	prepareReq struct {
		Ballot Ballot
	}
	prepareResp struct {
		Promised bool
		// HasAccepted reports a previously accepted proposal that the new
		// proposer must adopt.
		HasAccepted    bool
		AcceptedBallot Ballot
		AcceptedValue  []byte
		// Decided short-circuits: the instance already has an outcome.
		Decided      bool
		DecidedValue []byte
	}
	acceptReq struct {
		Ballot Ballot
		Value  []byte
	}
	acceptResp struct {
		Accepted bool
	}
	decideReq struct {
		Value []byte
	}
	learnResp struct {
		Decided bool
		Value   []byte
	}
)

// acceptor is the acceptor/learner state of one (key, config) Paxos
// instance on one server.
type acceptor struct {
	mu            sync.Mutex
	promised      Ballot
	hasPromised   bool
	accepted      Ballot
	hasAccepted   bool
	acceptedValue []byte
	decided       bool
	decidedValue  []byte
}

// Service hosts every Paxos acceptor of one node.
type Service struct {
	// states journals prepare/accept/decide before they mutate once
	// durability attaches a journal (see durable.go).
	states *keystate.Family[*acceptor]
}

// NewService returns the node-wide acceptor service for server self; each
// per-(key, config) instance starts fresh on first touch.
func NewService(self types.ProcessID, cfgs cfg.Source) *Service {
	return &Service{states: keystate.NewFamily(ServiceName, self, cfgs, func(cfg.Configuration, int) (*acceptor, error) {
		return &acceptor{}, nil
	})}
}

var _ node.KeyedService = (*Service)(nil)

// Family returns the service's per-(key, config) acceptors, for the host's
// durability and retirement wiring.
func (s *Service) Family() *keystate.Family[*acceptor] { return s.states }

// HandleKeyed implements node.KeyedService.
func (s *Service) HandleKeyed(_ types.ProcessID, key, configID, msgType string, payload []byte) (any, error) {
	st, err := s.states.State(key, configID)
	if err != nil {
		return nil, err
	}
	switch msgType {
	case msgPrepare:
		var req prepareReq
		if err := transport.Unmarshal(payload, &req); err != nil {
			return nil, err
		}
		// The promise must be durable before the reply leaves: a re-started
		// acceptor that forgot a promise could split a decision.
		release, err := s.states.Journal(key, configID, opPrepare, payload)
		if err != nil {
			return nil, err
		}
		defer release()
		return st.prepare(req), nil
	case msgAccept:
		var req acceptReq
		if err := transport.Unmarshal(payload, &req); err != nil {
			return nil, err
		}
		release, err := s.states.Journal(key, configID, opAccept, payload)
		if err != nil {
			return nil, err
		}
		defer release()
		return st.accept(req), nil
	case msgDecide:
		var req decideReq
		if err := transport.Unmarshal(payload, &req); err != nil {
			return nil, err
		}
		release, err := s.states.Journal(key, configID, opDecide, payload)
		if err != nil {
			return nil, err
		}
		defer release()
		st.decide(req.Value)
		return nil, nil
	case msgLearn:
		st.mu.Lock()
		defer st.mu.Unlock()
		return learnResp{Decided: st.decided, Value: st.decidedValue}, nil
	default:
		return nil, fmt.Errorf("consensus: unknown message type %q", msgType)
	}
}

func (st *acceptor) prepare(req prepareReq) prepareResp {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.decided {
		return prepareResp{Decided: true, DecidedValue: st.decidedValue}
	}
	if st.hasPromised && !st.promised.Less(req.Ballot) {
		return prepareResp{Promised: false}
	}
	st.promised = req.Ballot
	st.hasPromised = true
	return prepareResp{
		Promised:       true,
		HasAccepted:    st.hasAccepted,
		AcceptedBallot: st.accepted,
		AcceptedValue:  st.acceptedValue,
	}
}

func (st *acceptor) accept(req acceptReq) acceptResp {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.decided {
		// An accept after decision is stale; reject so the proposer learns
		// the decided value through its next prepare.
		return acceptResp{Accepted: false}
	}
	if st.hasPromised && req.Ballot.Less(st.promised) {
		return acceptResp{Accepted: false}
	}
	st.promised = req.Ballot
	st.hasPromised = true
	st.accepted = req.Ballot
	st.acceptedValue = req.Value
	st.hasAccepted = true
	return acceptResp{Accepted: true}
}

func (st *acceptor) decide(value []byte) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.decided {
		st.decided = true
		st.decidedValue = value
	}
}

// Decided reports the learned outcome of the (key, configID) instance (for
// tests). ok is false when the instance is undecided or not materialized.
func (s *Service) Decided(key, configID string) (value []byte, ok bool) {
	st, found := s.states.Get(key, configID)
	if !found {
		return nil, false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.decidedValue, st.decided
}

// Proposer drives the propose protocol against one instance.
type Proposer struct {
	self     types.ProcessID
	key      string
	configID string
	servers  []types.ProcessID
	q        quorum.System
	rpc      transport.Client

	rngMu sync.Mutex
	rng   *rand.Rand
}

// NewProposer constructs a proposer for the instance hosted on servers,
// addressed by (key, configID).
func NewProposer(self types.ProcessID, key, configID string, servers []types.ProcessID, rpc transport.Client) (*Proposer, error) {
	q, err := quorum.Majority(len(servers))
	if err != nil {
		return nil, fmt.Errorf("consensus: %w", err)
	}
	seed := int64(proposerID(self)) ^ time.Now().UnixNano()
	return &Proposer{
		self:     self,
		key:      key,
		configID: configID,
		servers:  servers,
		q:        q,
		rpc:      rpc,
		rng:      rand.New(rand.NewSource(seed)),
	}, nil
}

// Propose runs Paxos until a value is decided and returns it. The returned
// value may differ from the proposal when another proposer won (Validity
// still holds: it was proposed by someone).
func (p *Proposer) Propose(ctx context.Context, value []byte) ([]byte, error) {
	for attempt := int64(1); ; attempt++ {
		decided, ok, err := p.attempt(ctx, attempt, value)
		if err != nil {
			return nil, err
		}
		if ok {
			return decided, nil
		}
		// Contention: back off a randomized, growing amount before retrying.
		if err := p.backoff(ctx, attempt); err != nil {
			return nil, err
		}
	}
}

// attempt runs one ballot. It returns (decidedValue, true, nil) on success
// and (nil, false, nil) when preempted by a higher ballot.
func (p *Proposer) attempt(ctx context.Context, round int64, value []byte) ([]byte, bool, error) {
	ballot := Ballot{Round: round, Proposer: proposerID(p.self)}

	// Phase 1: prepare.
	promises, err := transport.Broadcast(ctx, p.rpc, p.servers,
		transport.Phase[prepareResp]{Service: ServiceName, Key: p.key, Config: p.configID, Type: msgPrepare, Body: prepareReq{Ballot: ballot}},
		func(got []transport.GatherResult[prepareResp]) bool {
			// Stop early on a decided report or a promise quorum.
			promised := 0
			for _, g := range got {
				if g.Value.Decided {
					return true
				}
				if g.Value.Promised {
					promised++
				}
			}
			return promised >= p.q.Size()
		},
	)
	if cfg.IsRetired(err) {
		// The instance's configuration was garbage-collected: its outcome is
		// already durable in the finalized nextC pointers. Retrying ballots
		// here would livelock; surface the redirect so the reconfigurer
		// re-runs read-config and proposes on the live tail.
		return nil, false, fmt.Errorf("consensus: prepare on %s: %w", p.configID, err)
	}
	if errorsIs(err, transport.ErrQuorumUnavailable) {
		return nil, false, nil // every server answered; rejections dominate: preempted
	}
	if err != nil {
		return nil, false, fmt.Errorf("consensus: prepare on %s: %w", p.configID, err)
	}
	chosen := value
	var highest Ballot
	var adopted bool
	promisedCount := 0
	for _, g := range promises {
		if g.Value.Decided {
			// Instance already decided: help spread the outcome, then done.
			p.broadcastDecide(ctx, g.Value.DecidedValue)
			return g.Value.DecidedValue, true, nil
		}
		if !g.Value.Promised {
			continue
		}
		promisedCount++
		if g.Value.HasAccepted && (!adopted || highest.Less(g.Value.AcceptedBallot)) {
			highest = g.Value.AcceptedBallot
			chosen = g.Value.AcceptedValue
			adopted = true
		}
	}
	if promisedCount < p.q.Size() {
		return nil, false, nil // preempted
	}

	// Phase 2: accept. The accept body carries the (possibly large) proposed
	// value to every acceptor; the phase engine encodes it once.
	accepts, err := transport.Broadcast(ctx, p.rpc, p.servers,
		transport.Phase[acceptResp]{Service: ServiceName, Key: p.key, Config: p.configID, Type: msgAccept, Body: acceptReq{Ballot: ballot, Value: chosen}},
		func(got []transport.GatherResult[acceptResp]) bool {
			accepted := 0
			for _, g := range got {
				if g.Value.Accepted {
					accepted++
				}
			}
			return accepted >= p.q.Size()
		},
	)
	if cfg.IsRetired(err) {
		return nil, false, fmt.Errorf("consensus: accept on %s: %w", p.configID, err)
	}
	if errorsIs(err, transport.ErrQuorumUnavailable) {
		return nil, false, nil // preempted by a higher ballot
	}
	if err != nil {
		return nil, false, fmt.Errorf("consensus: accept on %s: %w", p.configID, err)
	}
	acceptedCount := 0
	for _, g := range accepts {
		if g.Value.Accepted {
			acceptedCount++
		}
	}
	if acceptedCount < p.q.Size() {
		return nil, false, nil // preempted
	}

	// Decided: spread the outcome.
	p.broadcastDecide(ctx, chosen)
	return chosen, true, nil
}

// broadcastDecide informs servers of the decision, awaiting a majority so a
// later proposer's prepare quorum intersects a decided acceptor.
func (p *Proposer) broadcastDecide(ctx context.Context, value []byte) {
	_, _ = transport.Broadcast(ctx, p.rpc, p.servers,
		transport.Phase[struct{}]{Service: ServiceName, Key: p.key, Config: p.configID, Type: msgDecide, Body: decideReq{Value: value}},
		transport.AtLeast[struct{}](p.q.Size()),
	)
}

// Learn polls the servers for an existing decision without proposing.
func (p *Proposer) Learn(ctx context.Context) ([]byte, bool, error) {
	got, err := transport.Broadcast(ctx, p.rpc, p.servers,
		transport.Phase[learnResp]{Service: ServiceName, Key: p.key, Config: p.configID, Type: msgLearn, Body: struct{}{}},
		func(got []transport.GatherResult[learnResp]) bool {
			for _, g := range got {
				if g.Value.Decided {
					return true
				}
			}
			return len(got) >= p.q.Size()
		},
	)
	if err != nil {
		return nil, false, fmt.Errorf("consensus: learn on %s: %w", p.configID, err)
	}
	for _, g := range got {
		if g.Value.Decided {
			return g.Value.Value, true, nil
		}
	}
	return nil, false, nil
}

// backoff sleeps a randomized duration growing with the attempt number.
func (p *Proposer) backoff(ctx context.Context, attempt int64) error {
	const base = 2 * time.Millisecond
	max := base * time.Duration(1<<min64(attempt, 6))
	p.rngMu.Lock()
	d := time.Duration(p.rng.Int63n(int64(max)))
	p.rngMu.Unlock()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func errorsIs(err, target error) bool { return errors.Is(err, target) }

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
