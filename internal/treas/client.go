package treas

import (
	"context"
	"errors"
	"fmt"
	"sync"

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
//
// A Client carries one piece of state across operations: its read floor
// (see Floor), which only rises. Every get-data sends it, and servers leave
// out every list entry below it, so a warmed reader fetches the elements of
// the tags that can still decide its read and nothing older.
type Client struct {
	cfg  cfg.Configuration
	rpc  transport.Client
	code *erasure.Code

	mu    sync.Mutex
	floor tag.Tag
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
//
// The query carries the client's floor, and servers omit every entry
// below it; decide sees every tag at or above the floor exactly as an
// unfiltered read would, so the outcome is the same (see decide).
func (c *Client) GetDataConfirmed(ctx context.Context) (tag.Pair, bool, error) {
	q := c.cfg.Quorum()
	got, err := transport.Broadcast(ctx, c.rpc, c.cfg.Servers,
		transport.Phase[listResp]{Service: ServiceName, Key: c.cfg.Key, Config: string(c.cfg.ID), Type: msgQueryList, Body: listReq{Floor: c.Floor()}},
		transport.AtLeast[listResp](q.Size()),
	)
	if err != nil {
		return tag.Pair{}, false, fmt.Errorf("treas: get-data on %s: %w", c.cfg.ID, err)
	}
	lists := make([]listResp, len(got))
	for i, g := range got {
		lists[i] = g.Value
	}
	d, err := decide(lists, c.cfg.K, q.Size())
	if err != nil {
		return tag.Pair{}, false, fmt.Errorf("%w on %s", err, c.cfg.ID)
	}
	value, err := c.code.Decode(d.elems, d.valueLen)
	if err != nil {
		return tag.Pair{}, false, fmt.Errorf("treas: get-data decode on %s: %w", c.cfg.ID, err)
	}
	if d.confirmed {
		c.raiseFloor(d.tag)
	}
	return tag.Pair{Tag: d.tag, Value: value}, d.confirmed, nil
}

// decision is Alg. 2's get-data verdict over one gathered quorum of lists:
// the tag to return (t*max = tdecmax), the coded elements that decode it,
// and whether every list of a quorum carried its element.
type decision struct {
	tag       tag.Tag
	valueLen  int
	elems     map[int][]byte
	confirmed bool
}

// decide applies Alg. 2 get-data lines 11–17 to the lists gathered from
// distinct servers: t*max is the highest tag appearing in at least k lists,
// tdecmax the highest with coded elements in at least k, and the read
// returns only when they coincide; it is confirmed when that tag's element
// is in at least q lists. Otherwise it reports ErrNotDecodable.
//
// Every count decide takes is per tag, and the maxima look only upward. So
// dropping every entry below some floor f changes nothing for tags ≥ f: if
// the unfiltered t*max and tdecmax are both ≥ f the decision is identical,
// and otherwise the filtered lists have no candidate and decide reports
// ErrNotDecodable. A floor the client knows a full quorum's lists hold is
// in ≥ 2q − n ≥ k lists of every later quorum, so the unfiltered t*max is
// ≥ f and the filtered decision is the unfiltered one (DESIGN.md, "Read
// floor").
func decide(lists []listResp, k, q int) (decision, error) {
	type tagInfo struct {
		seen, withElem int
	}
	info := make(map[tag.Tag]*tagInfo)
	for _, l := range lists {
		for _, e := range l.Entries {
			ti, ok := info[e.Tag]
			if !ok {
				ti = &tagInfo{}
				info[e.Tag] = ti
			}
			ti.seen++
			if e.HasElem {
				ti.withElem++
			}
		}
	}
	var tStarMax, tDecMax tag.Tag
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
		return decision{}, fmt.Errorf("%w: no tag decodable from %d lists", ErrNotDecodable, k)
	}
	if tStarMax != tDecMax {
		return decision{}, fmt.Errorf("%w: t*max=%v tdecmax=%v", ErrNotDecodable, tStarMax, tDecMax)
	}
	d := decision{tag: tDecMax, elems: make(map[int][]byte, info[tDecMax].withElem)}
	for _, l := range lists {
		for _, e := range l.Entries {
			if e.Tag == tDecMax && e.HasElem {
				d.valueLen = e.ValueLen
				d.elems[l.Index] = e.Elem
			}
		}
	}
	d.confirmed = info[tDecMax].withElem >= q
	return d, nil
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
	c.raiseFloor(p.Tag)
	return nil
}

// Floor returns the client's read floor: the highest tag it knows a full
// ⌈(n+k)/2⌉ quorum of this configuration's lists to hold.
func (c *Client) Floor() tag.Tag {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.floor
}

// raiseFloor lifts the floor to t, never lowering it. Callers pass only a
// tag a full quorum's lists hold: one a put-data wrote to a quorum, or one
// a confirmed read saw with elements in a quorum. Tags never leave a live
// List (garbage collection nulls elements only), so the floor stays held.
func (c *Client) raiseFloor(t tag.Tag) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.floor.Less(t) {
		c.floor = t
	}
}
