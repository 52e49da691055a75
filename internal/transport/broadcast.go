package transport

import (
	"context"
	"sync"
	"time"

	"github.com/ares-storage/ares/internal/obs"
	"github.com/ares-storage/ares/internal/types"
)

// phaseHists caches the per-(service, type) quorum-phase latency
// histograms, keyed "service/type". After a phase's first execution the
// lookup is one lock-free sync.Map load; the observation itself is two
// atomic adds, which is noise against a quorum round-trip.
var phaseHists sync.Map // string -> *obs.Histogram

func phaseHist(service, typ string) *obs.Histogram {
	key := service + "/" + typ
	if h, ok := phaseHists.Load(key); ok {
		return h.(*obs.Histogram)
	}
	h := obs.Default.Histogram(
		`ares_phase_seconds{phase="`+key+`"}`,
		"Quorum-phase latency by service/type, Broadcast entry to quorum", nil)
	phaseHists.Store(key, h)
	return h
}

// Phase describes one quorum phase of a protocol: a typed request fanned out
// to a destination set under Gather's cancellation and quorum semantics.
// Every ARES building block — the DAPs' get-tag/get-data/put-data, the
// reconfiguration service's read-config/put-config, and the consensus
// rounds — is an instance of this shape ("send to all servers, await
// responses from ⌈(n+k)/2⌉ servers / a quorum", Alg. 2, 4, 12).
type Phase[RespT any] struct {
	// Service, Key, Config, and Type address the remote per-key state,
	// exactly as in Request.
	Service string
	Key     string
	Config  string
	Type    string

	// Body is the shared request body. Broadcast marshals it exactly once
	// and fans the same payload bytes out to every destination.
	Body any

	// BodyFor, when non-nil, overrides Body with a per-destination body —
	// the shape of TREAS put-data, where each server receives its own coded
	// element. Such a phase costs one encode per destination by necessity.
	BodyFor func(dst types.ProcessID) (any, error)

	// Check, when non-nil, validates a decoded reply. A reply failing Check
	// counts as that destination failing, not as progress toward the quorum
	// — e.g. a reply whose piggybacked state is older than the phase
	// requires, so a lagging server cannot complete the quorum.
	Check func(from types.ProcessID, resp RespT) error
}

// Broadcast runs one quorum phase: it encodes the request body (once for a
// shared Body, per destination for BodyFor), invokes every destination
// concurrently, decodes typed replies, and accumulates successes until
// enough is satisfied, then cancels the stragglers.
//
// Transport failures, service-level failures, and Check rejections all count
// as per-destination failures; Broadcast returns ErrQuorumUnavailable when
// they leave enough unsatisfiable, and ctx.Err() when the caller's context
// expires first (see Gather).
func Broadcast[RespT any](
	ctx context.Context,
	c Client,
	dsts []types.ProcessID,
	p Phase[RespT],
	enough func([]GatherResult[RespT]) bool,
) ([]GatherResult[RespT], error) {
	defer phaseHist(p.Service, p.Type).ObserveSince(time.Now())
	var shared []byte
	if p.BodyFor == nil {
		var err error
		shared, err = Marshal(p.Body)
		if err != nil {
			return nil, err
		}
	}
	return Gather(ctx, dsts,
		func(ctx context.Context, dst types.ProcessID) (RespT, error) {
			var zero RespT
			payload := shared
			if p.BodyFor != nil {
				body, err := p.BodyFor(dst)
				if err != nil {
					return zero, err
				}
				payload, err = Marshal(body)
				if err != nil {
					return zero, err
				}
			}
			out, err := invokePayload[RespT](ctx, c, dst, Addr{Service: p.Service, Key: p.Key, Config: p.Config, Type: p.Type}, payload)
			if err != nil {
				return zero, err
			}
			if p.Check != nil {
				if err := p.Check(dst, out); err != nil {
					return zero, err
				}
			}
			return out, nil
		},
		enough,
	)
}
