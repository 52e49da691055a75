package treas

import (
	"context"
	"errors"
	"fmt"

	"github.com/ares-storage/ares/internal/cfg"
	"github.com/ares-storage/ares/internal/dap"
	"github.com/ares-storage/ares/internal/erasure"
	"github.com/ares-storage/ares/internal/tag"
	"github.com/ares-storage/ares/internal/transport"
	"github.com/ares-storage/ares/internal/types"
)

// ErrNotDecodable reports a get-data whose maximum witnessed tag t*max is
// not yet decodable (t*max ≠ tdecmax in Alg. 2). The paper's read simply
// does not complete in this case; callers retry. Theorem 9 guarantees this
// cannot persist when concurrent writes stay within the δ bound and
// k > n/3.
var ErrNotDecodable = errors.New("treas: highest witnessed tag not yet decodable")

// Client implements dap.Client with the TREAS protocols of Alg. 2.
type Client struct {
	cfg  cfg.Configuration
	rpc  transport.Client
	code *erasure.Code
}

// NewClient builds the TREAS DAP client for configuration c.
func NewClient(c cfg.Configuration, rpc transport.Client) (*Client, error) {
	if c.Algorithm != cfg.TREAS {
		return nil, fmt.Errorf("treas: configuration %s uses algorithm %q", c.ID, c.Algorithm)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	code, err := erasure.New(c.N(), c.K)
	if err != nil {
		return nil, err
	}
	return &Client{cfg: c, rpc: rpc, code: code}, nil
}

// Factory adapts NewClient to the dap.Factory shape.
func Factory(c cfg.Configuration, rpc transport.Client) (dap.Client, error) {
	return NewClient(c, rpc)
}

var _ dap.Client = (*Client)(nil)

// GetTag queries all servers for their highest tags and returns the maximum
// among ⌈(n+k)/2⌉ responses (Alg. 2 get-tag).
func (c *Client) GetTag(ctx context.Context) (tag.Tag, error) {
	q := c.cfg.Quorum()
	got, err := transport.Broadcast(ctx, c.rpc, c.cfg.Servers,
		transport.Phase[tagResp]{Service: ServiceName, Key: c.cfg.Key, Config: string(c.cfg.ID), Type: msgQueryTag, Body: struct{}{}},
		transport.AtLeast[tagResp](q.Size()),
	)
	if err != nil {
		return tag.Tag{}, fmt.Errorf("treas: get-tag on %s: %w", c.cfg.ID, err)
	}
	max := tag.Zero
	for _, g := range got {
		max = tag.Max(max, g.Value.Tag)
	}
	return max, nil
}

// GetData retrieves Lists from ⌈(n+k)/2⌉ servers and decodes the highest
// tag that (i) appears in at least k lists and (ii) has coded elements in at
// least k lists; both maxima must coincide (Alg. 2 get-data lines 11–17).
func (c *Client) GetData(ctx context.Context) (tag.Pair, error) {
	p, _, err := c.GetDataConfirmed(ctx)
	return p, err
}

// GetDataConfirmed implements dap.Client. The decoded tag is
// confirmed when every list in the gathered quorum carries its coded
// element: the coding parameters then always permit skipping the
// write-back, because with q = ⌈(n+k)/2⌉ any two quorums intersect in
// 2q − n ≥ k servers, so every later get-data quorum finds at least k
// elements of this tag (or of a larger one — element lists are
// tag-monotone) and can decode it.
func (c *Client) GetDataConfirmed(ctx context.Context) (tag.Pair, bool, error) {
	q := c.cfg.Quorum()
	got, err := transport.Broadcast(ctx, c.rpc, c.cfg.Servers,
		transport.Phase[listResp]{Service: ServiceName, Key: c.cfg.Key, Config: string(c.cfg.ID), Type: msgQueryList, Body: struct{}{}},
		transport.AtLeast[listResp](q.Size()),
	)
	if err != nil {
		return tag.Pair{}, false, fmt.Errorf("treas: get-data on %s: %w", c.cfg.ID, err)
	}

	// Count, per tag: in how many lists it appears, and in how many it
	// appears with a coded element. Collect elements by shard index.
	type tagInfo struct {
		seen     int
		withElem int
		valueLen int
		elems    map[int][]byte
	}
	info := make(map[tag.Tag]*tagInfo)
	for _, g := range got {
		for _, e := range g.Value.Entries {
			ti, ok := info[e.Tag]
			if !ok {
				ti = &tagInfo{elems: make(map[int][]byte)}
				info[e.Tag] = ti
			}
			ti.seen++
			if e.HasElem {
				ti.withElem++
				ti.valueLen = e.ValueLen
				ti.elems[g.Value.Index] = e.Elem
			}
		}
	}

	k := c.cfg.K
	tStarMax, tDecMax := tag.Tag{}, tag.Tag{}
	foundStar, foundDec := false, false
	for t, ti := range info {
		if ti.seen >= k && (!foundStar || tStarMax.Less(t)) {
			tStarMax, foundStar = t, true
		}
		if ti.withElem >= k && (!foundDec || tDecMax.Less(t)) {
			tDecMax, foundDec = t, true
		}
	}
	if !foundStar || !foundDec {
		// Concurrent writes beyond δ can garbage-collect every common
		// decodable tag out of this quorum's lists. The paper's read simply
		// does not complete yet — report the retryable condition.
		return tag.Pair{}, false, fmt.Errorf("%w: no tag decodable from %d lists on %s", ErrNotDecodable, k, c.cfg.ID)
	}
	if tStarMax != tDecMax {
		return tag.Pair{}, false, fmt.Errorf("%w: t*max=%v tdecmax=%v on %s", ErrNotDecodable, tStarMax, tDecMax, c.cfg.ID)
	}
	ti := info[tDecMax]
	value, err := c.code.Decode(ti.elems, ti.valueLen)
	if err != nil {
		return tag.Pair{}, false, fmt.Errorf("treas: get-data decode on %s: %w", c.cfg.ID, err)
	}
	return tag.Pair{Tag: tDecMax, Value: value}, ti.withElem >= q.Size(), nil
}

// PutData encodes the value and sends each server its coded element,
// completing on ⌈(n+k)/2⌉ acks (Alg. 2 put-data). The bodies are inherently
// per-destination (server i receives Φ_i(v)), so this is the one phase that
// pays one encode per server — via the Phase.BodyFor hook.
func (c *Client) PutData(ctx context.Context, p tag.Pair) error {
	shards, err := c.code.Encode(p.Value)
	if err != nil {
		return fmt.Errorf("treas: put-data encode on %s: %w", c.cfg.ID, err)
	}
	q := c.cfg.Quorum()
	_, err = transport.Broadcast(ctx, c.rpc, c.cfg.Servers,
		transport.Phase[struct{}]{
			Service: ServiceName, Key: c.cfg.Key, Config: string(c.cfg.ID), Type: msgPutData,
			BodyFor: func(dst types.ProcessID) (any, error) {
				idx, ok := c.cfg.ServerIndex(dst)
				if !ok {
					return nil, fmt.Errorf("treas: %s not in configuration", dst)
				}
				return putDataReq{Tag: p.Tag, Elem: shards[idx], ValueLen: len(p.Value)}, nil
			},
		},
		transport.AtLeast[struct{}](q.Size()),
	)
	if err != nil {
		return fmt.Errorf("treas: put-data on %s: %w", c.cfg.ID, err)
	}
	return nil
}
