// Package treas implements TREAS (§3), the paper's two-round erasure-coded
// algorithm for MWMR atomic storage, as a DAP implementation.
//
// Each server si keeps, per object, a List of (tag, coded-element) pairs,
// bounded so that only the δ+1 highest tags retain their coded elements;
// older tags keep a ⊥ placeholder (Alg. 3). Clients operate against
// ⌈(n+k)/2⌉ threshold quorums: any two such quorums intersect in at least k
// servers, which makes a tag written to one quorum decodable by every later
// reader quorum (Lemma 5).
//
// A read fetches only what can decide it. Each Client keeps a monotone
// read floor, the highest tag it knows a full quorum's lists hold (from its
// own completed put-data or confirmed get-data), and query-list carries it.
// Servers answer with the List entries at or above the floor. Since tags
// never leave a live List, the floor is in at least k lists of every later
// quorum, so Alg. 2's maxima and the fast-path confirmation come out as
// they would over whole Lists, while a warmed reader receives one coded
// element per server instead of δ+1.
//
// A node hosts a single Service for the whole keyspace: each (key, config)
// object is one lazily-created entry in a striped-lock map, materialized by
// the first message that names the pair (no per-key installation). Erasure
// codecs and the coded elements of the empty initial value are shared across
// all objects with the same [n, k] parameters, so first touch costs a map
// entry, not a matrix inversion.
//
// The package also carries the server-side half of the §5 optimized state
// transfer (ARES-TREAS): handlers that forward coded elements directly from
// an old configuration's servers to a new configuration's servers, decoding
// and re-encoding across code parameters without routing values through the
// reconfiguration client. See xfer.go.
package treas

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/ares-storage/ares/internal/cfg"
	"github.com/ares-storage/ares/internal/erasure"
	"github.com/ares-storage/ares/internal/keystate"
	"github.com/ares-storage/ares/internal/node"
	"github.com/ares-storage/ares/internal/tag"
	"github.com/ares-storage/ares/internal/transport"
	"github.com/ares-storage/ares/internal/types"
)

// ServiceName keys the TREAS store service on nodes and in request routing.
const ServiceName = "treas"

// Message types of the base protocol (Alg. 2/3).
const (
	msgQueryTag  = "query-tag"
	msgQueryList = "query-list"
	msgPutData   = "put-data"
)

// listEntry is one (tag, coded-element) pair in a server's List. A nil
// Elem with HasElem false is the paper's ⊥ placeholder left by garbage
// collection.
type listEntry struct {
	Tag      tag.Tag
	Elem     []byte
	HasElem  bool
	ValueLen int
}

// Wire bodies (binary encodings in codec.go).
type (
	tagResp struct {
		Tag tag.Tag
	}
	// listReq asks for the entries of a List at or above Floor, a tag the
	// reader knows a full quorum's lists hold (tag.Zero asks for them all).
	listReq struct {
		Floor tag.Tag
	}
	listResp struct {
		// Index is the responding server's shard index within the
		// configuration, i.e. it stores Φ_Index(v).
		Index   int
		Entries []listEntry
	}
	putDataReq struct {
		Tag      tag.Tag
		Elem     []byte
		ValueLen int
	}
)

// objState is the per-(key, config) TREAS server state: the configuration it
// was resolved against, this server's shard index in it, and the List.
type objState struct {
	cfg   cfg.Configuration
	index int // this server's shard index in cfg.Servers
	code  *erasure.Code

	mu   sync.Mutex
	list map[tag.Tag]listEntry

	// §5 state: pending foreign coded elements keyed by tag, the set of
	// reconfigurers already served (Alg. 9's D and Recons variables), and
	// the forward requests already relayed (md-primitive dedup).
	pendingD  map[tag.Tag]*pendingDecode
	recons    map[types.ProcessID]bool
	forwarded map[string]bool
}

// pendingDecode accumulates coded elements of a foreign configuration until
// k of them allow decoding (Alg. 9).
type pendingDecode struct {
	srcK     int
	valueLen int
	elems    map[int][]byte
}

// codeParams identify one [n, k] erasure code.
type codeParams struct{ n, k int }

// sharedCode couples a codec with the coded elements of the empty initial
// value — both immutable and shared by every object using the same
// parameters.
type sharedCode struct {
	code       *erasure.Code
	zeroShards [][]byte
}

// Service hosts every TREAS object of one node. rpc is the server's own
// network endpoint, needed only for the §5 server-to-server forwarding; it
// may be nil when reconfiguration transfer is not exercised.
type Service struct {
	self   types.ProcessID
	cfgs   cfg.Source
	rpc    transport.Client
	states *keystate.Map[*objState]

	codeMu sync.Mutex
	codes  map[codeParams]*sharedCode

	sends sync.WaitGroup

	// journal, when attached, write-ahead-logs put-data and fwd-elem before
	// they apply (see durable.go); nil for in-memory operation.
	journal atomic.Pointer[keystate.Journal]
}

// NewService returns the node-wide TREAS store for server self. cfgs
// resolves the configurations messages address; state for unresolvable or
// non-member configurations is never created.
func NewService(self types.ProcessID, cfgs cfg.Source, rpc transport.Client) *Service {
	return &Service{
		self:   self,
		cfgs:   cfgs,
		rpc:    rpc,
		states: keystate.New[*objState](keystate.DefaultShards),
		codes:  make(map[codeParams]*sharedCode),
	}
}

var _ node.KeyedService = (*Service)(nil)

// codeFor returns the shared codec (and initial-value shards) for [n, k],
// building it once per parameter pair.
func (s *Service) codeFor(n, k int) (*sharedCode, error) {
	s.codeMu.Lock()
	defer s.codeMu.Unlock()
	if sc, ok := s.codes[codeParams{n, k}]; ok {
		return sc, nil
	}
	code, err := erasure.New(n, k)
	if err != nil {
		return nil, err
	}
	// List is initialized with (t0, Φi(v0)): the coded elements of the empty
	// initial value, so reads before any write decode v0.
	shards, err := code.Encode(nil)
	if err != nil {
		return nil, err
	}
	sc := &sharedCode{code: code, zeroShards: shards}
	s.codes[codeParams{n, k}] = sc
	return sc, nil
}

// state returns (creating on first touch) the object state for
// (key, configID).
func (s *Service) state(key, configID string) (*objState, error) {
	return keystate.Materialize(s.states, s.cfgs, ServiceName, s.self, key, configID,
		func(c cfg.Configuration) (*objState, error) {
			if c.Algorithm != cfg.TREAS {
				return nil, fmt.Errorf("treas: configuration %s uses algorithm %q", c.ID, c.Algorithm)
			}
			idx, ok := c.ServerIndex(s.self)
			if !ok {
				return nil, fmt.Errorf("treas: server %s is not a member of %s", s.self, c.ID)
			}
			sc, err := s.codeFor(c.N(), c.K)
			if err != nil {
				return nil, err
			}
			st := &objState{
				cfg:       c,
				index:     idx,
				code:      sc.code,
				list:      make(map[tag.Tag]listEntry),
				pendingD:  make(map[tag.Tag]*pendingDecode),
				recons:    make(map[types.ProcessID]bool),
				forwarded: make(map[string]bool),
			}
			st.list[tag.Zero] = listEntry{Tag: tag.Zero, Elem: sc.zeroShards[idx], HasElem: true, ValueLen: 0}
			return st, nil
		})
}

// HandleKeyed implements node.KeyedService.
func (s *Service) HandleKeyed(_ types.ProcessID, key, configID, msgType string, payload []byte) (any, error) {
	st, err := s.state(key, configID)
	if err != nil {
		return nil, err
	}
	switch msgType {
	case msgQueryTag:
		return st.handleQueryTag()
	case msgQueryList:
		var req listReq
		if err := transport.Unmarshal(payload, &req); err != nil {
			return nil, err
		}
		return st.handleQueryList(req.Floor)
	case msgPutData:
		release, err := s.journalOp(key, configID, opPutData, payload)
		if err != nil {
			return nil, err
		}
		defer release()
		return st.handlePutData(payload)
	case msgReqForward:
		return s.handleReqForward(st, payload)
	case msgFwdElem:
		release, err := s.journalOp(key, configID, opFwdElem, payload)
		if err != nil {
			return nil, err
		}
		defer release()
		return st.handleFwdElem(payload)
	case msgHasTag:
		return st.handleHasTag(payload)
	default:
		return nil, fmt.Errorf("treas: unknown message type %q", msgType)
	}
}

// handleQueryTag returns the maximum tag in the List (Alg. 3 QUERY-TAG).
func (st *objState) handleQueryTag() (any, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	max := tag.Zero
	for t := range st.list {
		max = tag.Max(max, t)
	}
	return tagResp{Tag: max}, nil
}

// handleQueryList returns the List's entries with tags at or above floor
// (Alg. 3 QUERY-LIST; tag.Zero returns the whole List). An entry below the
// floor is left out entirely, bare tag included: it cannot decide the read,
// since the floor itself is in at least k of any reader quorum's lists and
// Alg. 2 takes maxima over tags (see decide in client.go).
func (st *objState) handleQueryList(floor tag.Tag) (any, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	entries := make([]listEntry, 0, len(st.list))
	for t, e := range st.list {
		if floor.LessEq(t) {
			entries = append(entries, e)
		}
	}
	// Deterministic order for reproducible wire traffic and tests.
	sort.Slice(entries, func(i, j int) bool { return entries[i].Tag.Less(entries[j].Tag) })
	return listResp{Index: st.index, Entries: entries}, nil
}

// handlePutData inserts the pair and garbage-collects old coded elements
// (Alg. 3 PUT-DATA).
func (st *objState) handlePutData(payload []byte) (any, error) {
	var req putDataReq
	if err := transport.Unmarshal(payload, &req); err != nil {
		return nil, err
	}
	// req.Elem aliases payload and is stored as is: every payload a
	// handler sees owns its bytes (the TCP reader and WAL replay copy, the
	// simulated network shares a sender's slice that nothing writes again),
	// and a stored element is never written in place.
	st.mu.Lock()
	defer st.mu.Unlock()
	st.insertLocked(req.Tag, req.Elem, req.ValueLen)
	return nil, nil // ACK
}

// insertLocked adds (t, elem) to the List and enforces the δ+1 bound:
// coded elements of all but the δ+1 highest tags are replaced by ⊥, while
// the tags themselves are retained (Alg. 3 lines 12–15). Callers hold st.mu.
func (st *objState) insertLocked(t tag.Tag, elem []byte, valueLen int) {
	if existing, ok := st.list[t]; ok && existing.HasElem {
		return // already stored with its element; inserts are idempotent
	}
	st.list[t] = listEntry{Tag: t, Elem: elem, HasElem: true, ValueLen: valueLen}
	st.gcLocked()
}

// gcLocked trims coded elements beyond the δ+1 highest tags.
func (st *objState) gcLocked() {
	withElem := make([]tag.Tag, 0, len(st.list))
	for t, e := range st.list {
		if e.HasElem {
			withElem = append(withElem, t)
		}
	}
	keep := st.cfg.Delta + 1
	if len(withElem) <= keep {
		return
	}
	// Sort descending; null out elements past the δ+1 highest.
	sort.Slice(withElem, func(i, j int) bool { return withElem[j].Less(withElem[i]) })
	for _, t := range withElem[keep:] {
		e := st.list[t]
		e.Elem = nil
		e.HasElem = false
		st.list[t] = e
	}
}

// StorageBytes reports the coded-element bytes at rest across every object —
// the storage-cost metric of Theorem 3(i): at most (δ+1)·(value size)/k per
// object per server.
func (s *Service) StorageBytes() int {
	total := 0
	s.states.Range(func(_ keystate.Ref, st *objState) bool {
		st.mu.Lock()
		for _, e := range st.list {
			total += len(e.Elem)
		}
		st.mu.Unlock()
		return true
	})
	return total
}

// States reports how many (key, config) objects have been materialized (for
// tests asserting lazy creation and O(1)-in-keys service hosting).
func (s *Service) States() int { return s.states.Len() }

// RetireConfig drops the object state for (key, configID) — List, pending
// decodes, forward dedup — reporting whether state existed. The lifecycle GC
// calls it once the configuration's finalized successor proves it quiescent.
func (s *Service) RetireConfig(key, configID string) bool {
	return s.states.Delete(keystate.Ref{Key: key, Config: configID})
}

// ListSize returns how many tags one object's List holds and how many retain
// coded elements (for tests asserting the GC bound). Missing objects report
// zeros.
func (s *Service) ListSize(key, configID string) (tags, withElems int) {
	st, ok := s.states.Get(keystate.Ref{Key: key, Config: configID})
	if !ok {
		return 0, 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, e := range st.list {
		tags++
		if e.HasElem {
			withElems++
		}
	}
	return tags, withElems
}

// MaxTag returns the largest tag in one object's List (for tests).
func (s *Service) MaxTag(key, configID string) tag.Tag {
	st, ok := s.states.Get(keystate.Ref{Key: key, Config: configID})
	if !ok {
		return tag.Zero
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	max := tag.Zero
	for t := range st.list {
		max = tag.Max(max, t)
	}
	return max
}
