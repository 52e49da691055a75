// Package abd implements the multi-writer ABD algorithm (Attiya, Bar-Noy,
// Dolev) as a DAP implementation, following Alg. 12 of the paper's appendix.
//
// ABD is the replication baseline: every server stores a full copy of the
// value together with its tag. get-data encapsulates the query phase,
// put-data the propagation phase; quorums are majorities of the
// configuration's servers. Its DAPs satisfy C1 and C2 (Lemmas 34–37), so the
// A1 template over them is atomic.
//
// A node hosts a single Service for the whole keyspace: each (key, config)
// register is one lazily-created entry in a striped-lock map, materialized
// by the first message that names the pair (no per-key installation).
package abd

import (
	"context"
	"fmt"
	"sync"

	"github.com/ares-storage/ares/internal/cfg"
	"github.com/ares-storage/ares/internal/dap"
	"github.com/ares-storage/ares/internal/keystate"
	"github.com/ares-storage/ares/internal/node"
	"github.com/ares-storage/ares/internal/tag"
	"github.com/ares-storage/ares/internal/transport"
	"github.com/ares-storage/ares/internal/types"
)

// ServiceName keys the ABD store service on nodes and in request routing.
const ServiceName = "abd"

// Message types.
const (
	msgQueryTag = "query-tag"
	msgQuery    = "query"
	msgWrite    = "write"
)

// Wire bodies (binary encodings in codec.go). Value travels in full on
// every query/write: this is exactly the communication cost replication pays
// and the paper's motivation for TREAS.
type (
	tagResp struct {
		Tag tag.Tag
	}
	// pairBody is the shape of every body that carries a value: the query
	// reply, the write request, and the register's snapshot blob.
	pairBody struct {
		Tag   tag.Tag
		Value []byte
	}
	pairResp = pairBody
	writeReq = pairBody
)

// register is the per-(key, config) server state: one tag-value pair,
// monotonically advanced by write messages (Alg. 12 primitive handlers).
type register struct {
	mu  sync.Mutex
	tag tag.Tag
	val types.Value
}

// Service hosts every ABD register of one node. Per-(key, config) registers
// are created on first touch after resolving the addressed configuration and
// checking this server's membership.
type Service struct {
	// states journals every mutation before it applies once durability
	// attaches a journal (see durable.go).
	states *keystate.Family[*register]
}

// NewService returns the node-wide ABD store for server self. cfgs resolves
// the configurations messages address; state for unresolvable or non-member
// configurations is never created.
func NewService(self types.ProcessID, cfgs cfg.Source) *Service {
	return &Service{states: keystate.NewFamily(ServiceName, self, cfgs,
		func(c cfg.Configuration, _ int) (*register, error) {
			if c.Algorithm != cfg.ABD {
				return nil, fmt.Errorf("abd: configuration %s uses algorithm %q", c.ID, c.Algorithm)
			}
			return &register{}, nil
		})}
}

var _ node.KeyedService = (*Service)(nil)

// Family returns the service's per-(key, config) registers, for the host's
// durability and retirement wiring.
func (s *Service) Family() *keystate.Family[*register] { return s.states }

// HandleKeyed implements node.KeyedService.
func (s *Service) HandleKeyed(_ types.ProcessID, key, configID, msgType string, payload []byte) (any, error) {
	st, err := s.states.State(key, configID)
	if err != nil {
		return nil, err
	}
	switch msgType {
	case msgQueryTag:
		st.mu.Lock()
		defer st.mu.Unlock()
		return tagResp{Tag: st.tag}, nil
	case msgQuery:
		st.mu.Lock()
		defer st.mu.Unlock()
		// No clone: apply only ever installs a freshly cloned slice and
		// never writes into a stored one, so the value stays immutable
		// after this lock is released and the reply encodes it then.
		return pairResp{Tag: st.tag, Value: st.val}, nil
	case msgWrite:
		var req writeReq
		if err := transport.Unmarshal(payload, &req); err != nil {
			return nil, err
		}
		release, err := s.states.Journal(key, configID, opWrite, payload)
		if err != nil {
			return nil, err
		}
		defer release()
		st.apply(req)
		return nil, nil // ACK
	default:
		return nil, fmt.Errorf("abd: unknown message type %q", msgType)
	}
}

// StorageBytes reports the bytes of object data at rest across every
// register on this server — the paper's storage-cost metric (metadata
// excluded).
func (s *Service) StorageBytes() int {
	total := 0
	s.states.Range(func(_ keystate.Ref, st *register) bool {
		st.mu.Lock()
		total += len(st.val)
		st.mu.Unlock()
		return true
	})
	return total
}

// Current returns the stored pair of one register (for tests and
// introspection). The bool reports whether the register exists.
func (s *Service) Current(key, configID string) (tag.Pair, bool) {
	st, ok := s.states.Get(key, configID)
	if !ok {
		return tag.Pair{}, false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return tag.Pair{Tag: st.tag, Value: st.val.Clone()}, true
}

// Client implements dap.Client over a configuration using majority quorums.
type Client struct {
	cfg cfg.Configuration
	rpc transport.Client
}

// NewClient builds the ABD DAP client for configuration c.
func NewClient(c cfg.Configuration, rpc transport.Client) (*Client, error) {
	if c.Algorithm != cfg.ABD {
		return nil, fmt.Errorf("abd: configuration %s uses algorithm %q", c.ID, c.Algorithm)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &Client{cfg: c, rpc: rpc}, nil
}

// Factory adapts NewClient to the dap.Factory shape.
func Factory(c cfg.Configuration, rpc transport.Client) (dap.Client, error) {
	return NewClient(c, rpc)
}

var _ dap.Client = (*Client)(nil)

// GetTag queries all servers for their tags and returns the maximum among a
// majority quorum of responses.
func (c *Client) GetTag(ctx context.Context) (tag.Tag, error) {
	q := c.cfg.Quorum()
	got, err := transport.Broadcast(ctx, c.rpc, c.cfg.Servers,
		transport.Phase[tagResp]{Service: ServiceName, Key: c.cfg.Key, Config: string(c.cfg.ID), Type: msgQueryTag, Body: struct{}{}},
		transport.AtLeast[tagResp](q.Size()),
	)
	if err != nil {
		return tag.Tag{}, fmt.Errorf("abd: get-tag on %s: %w", c.cfg.ID, err)
	}
	max := tag.Zero
	for _, g := range got {
		max = tag.Max(max, g.Value.Tag)
	}
	return max, nil
}

// GetData queries all servers and returns the pair with the maximum tag
// among a majority quorum of responses.
func (c *Client) GetData(ctx context.Context) (tag.Pair, error) {
	p, _, err := c.GetDataConfirmed(ctx)
	return p, err
}

// GetDataConfirmed implements dap.Client. The query replies are
// themselves the propagation proof — each reply carries the server's stored
// tag, so when every member of the gathered quorum already reports the
// maximum tag, that tag is propagated to a quorum and a reader may skip its
// write-back: any subsequent quorum intersects this one in at least one
// server holding it (tags are monotone, so it never regresses).
func (c *Client) GetDataConfirmed(ctx context.Context) (tag.Pair, bool, error) {
	q := c.cfg.Quorum()
	got, err := transport.Broadcast(ctx, c.rpc, c.cfg.Servers,
		transport.Phase[pairResp]{Service: ServiceName, Key: c.cfg.Key, Config: string(c.cfg.ID), Type: msgQuery, Body: struct{}{}},
		transport.AtLeast[pairResp](q.Size()),
	)
	if err != nil {
		return tag.Pair{}, false, fmt.Errorf("abd: get-data on %s: %w", c.cfg.ID, err)
	}
	best := tag.Pair{}
	for _, g := range got {
		best = tag.MaxPair(best, tag.Pair{Tag: g.Value.Tag, Value: g.Value.Value})
	}
	holders := 0
	for _, g := range got {
		if g.Value.Tag == best.Tag {
			holders++
		}
	}
	return best, holders >= q.Size(), nil
}

// PutData propagates the pair to all servers and completes once a majority
// has acknowledged. The write body — carrying the full value, replication's
// communication cost — is encoded once and shared across all destinations.
func (c *Client) PutData(ctx context.Context, p tag.Pair) error {
	q := c.cfg.Quorum()
	_, err := transport.Broadcast(ctx, c.rpc, c.cfg.Servers,
		transport.Phase[struct{}]{Service: ServiceName, Key: c.cfg.Key, Config: string(c.cfg.ID), Type: msgWrite, Body: writeReq{Tag: p.Tag, Value: p.Value}},
		transport.AtLeast[struct{}](q.Size()),
	)
	if err != nil {
		return fmt.Errorf("abd: put-data on %s: %w", c.cfg.ID, err)
	}
	return nil
}
