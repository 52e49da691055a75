// Package dap defines the data access primitives (DAPs) of §2.1 —
// get-tag, get-data, and put-data — and the generic algorithmic templates A1
// and A2 (Appendix A) built on them.
//
// Expressing atomic algorithms through DAPs is the paper's modularity lever:
// an algorithm written as template A1 is atomic whenever its DAP
// implementation satisfies consistency properties C1 and C2 (Theorem 32),
// and ARES can mix different DAP implementations across configurations
// without compromising safety (Remark 22).
package dap

import (
	"context"
	"errors"
	"fmt"

	"github.com/ares-storage/ares/internal/cfg"
	"github.com/ares-storage/ares/internal/tag"
	"github.com/ares-storage/ares/internal/transport"
	"github.com/ares-storage/ares/internal/types"
)

// Client exposes the three data access primitives against one configuration
// (Definition 1). Implementations are per-configuration: construct one with
// a Factory.
type Client interface {
	// GetTag returns a tag τ at least as large as that of any put-data that
	// completed before this call (property C1).
	GetTag(ctx context.Context) (tag.Tag, error)
	// GetData returns a tag-value pair whose tag satisfies C1 and whose
	// value was actually put (or is the initial pair) — property C2.
	GetData(ctx context.Context) (tag.Pair, error)
	// GetDataConfirmed is GetData plus a propagation proof: confirmed
	// reports that the returned pair's tag was already held by a full
	// quorum at the time of the query. A reader holding that proof may skip
	// its put-data write-back round — any later get-data quorum intersects
	// the confirming quorum and therefore observes a tag at least as large
	// (C1 still holds for the skipped propagation). Without the proof the
	// reader falls back to the two-round template.
	GetDataConfirmed(ctx context.Context) (p tag.Pair, confirmed bool, err error)
	// PutData stores the tag-value pair so that subsequent GetTag/GetData
	// calls observe a tag at least as large.
	PutData(ctx context.Context, p tag.Pair) error
}

// Factory builds a DAP client for a configuration. The transport client is
// the invoking process's network endpoint.
type Factory func(c cfg.Configuration, rpc transport.Client) (Client, error)

// Registry maps algorithm names to factories. ARES consults it when an
// operation reaches a configuration: the configuration's Algorithm field
// selects the DAP implementation (the paper's adaptivity).
type Registry struct {
	factories map[cfg.Algorithm]Factory
}

// NewRegistry builds a registry from explicit registrations. Registration is
// explicit (no global state, no init side effects); the core package wires
// the standard two algorithms.
func NewRegistry() *Registry {
	return &Registry{factories: make(map[cfg.Algorithm]Factory)}
}

// Register installs a factory for an algorithm, replacing any previous one.
func (r *Registry) Register(alg cfg.Algorithm, f Factory) {
	r.factories[alg] = f
}

// ErrUnknownAlgorithm reports a configuration naming an algorithm with no
// registered factory.
var ErrUnknownAlgorithm = errors.New("dap: unknown algorithm")

// New constructs the DAP client for configuration c.
func (r *Registry) New(c cfg.Configuration, rpc transport.Client) (Client, error) {
	f, ok := r.factories[c.Algorithm]
	if !ok {
		return nil, fmt.Errorf("%w: %q in configuration %s", ErrUnknownAlgorithm, c.Algorithm, c.ID)
	}
	return f(c, rpc)
}

// ReadA1 is template A1's read (Alg. 10): get-data then put-data of the same
// pair (the propagation phase that makes reads "write back"), returning the
// pair.
func ReadA1(ctx context.Context, c Client) (tag.Pair, error) {
	p, err := c.GetData(ctx)
	if err != nil {
		return tag.Pair{}, fmt.Errorf("dap: A1 read get-data: %w", err)
	}
	if err := c.PutData(ctx, p); err != nil {
		return tag.Pair{}, fmt.Errorf("dap: A1 read put-data: %w", err)
	}
	return p, nil
}

// WriteA1 is template A1's write (Alg. 10): get-tag, increment with the
// writer's ID, put-data. It returns the tag assigned to the written value.
func WriteA1(ctx context.Context, c Client, writer types.ProcessID, v types.Value) (tag.Tag, error) {
	t, err := c.GetTag(ctx)
	if err != nil {
		return tag.Tag{}, fmt.Errorf("dap: A1 write get-tag: %w", err)
	}
	tw := t.Next(writer)
	if err := c.PutData(ctx, tag.Pair{Tag: tw, Value: v}); err != nil {
		return tag.Tag{}, fmt.Errorf("dap: A1 write put-data: %w", err)
	}
	return tw, nil
}

// ReadA2 is template A2's read (Alg. 11): a single get-data with no
// propagation phase. Safe only when the DAP also satisfies property C3.
func ReadA2(ctx context.Context, c Client) (tag.Pair, error) {
	p, err := c.GetData(ctx)
	if err != nil {
		return tag.Pair{}, fmt.Errorf("dap: A2 read get-data: %w", err)
	}
	return p, nil
}
