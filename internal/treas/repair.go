package treas

import (
	"context"
	"fmt"

	"github.com/ares-storage/ares/internal/cfg"
	"github.com/ares-storage/ares/internal/erasure"
	"github.com/ares-storage/ares/internal/tag"
	"github.com/ares-storage/ares/internal/transport"
	"github.com/ares-storage/ares/internal/types"
)

// Repair reconstructs the coded elements a target server is missing — the
// paper's stated future work ("adding efficient repair"). A server that
// restarted empty (or a fresh replacement installed under the same identity)
// rejoins the configuration without a full reconfiguration:
//
//  1. read Lists from a ⌈(n+k)/2⌉ quorum of the configuration,
//  2. decode every tag with at least k surviving coded elements,
//  3. re-encode the target's element Φ_target(v) for each tag it lacks,
//  4. install the elements at the target.
//
// Repair is idempotent and safe to run concurrently with reads and writes:
// it only inserts (tag, element) pairs the protocol could have delivered,
// and the server's δ+1 garbage collection applies as usual.
//
// It returns the number of elements installed at the target.
func Repair(ctx context.Context, rpc transport.Client, c cfg.Configuration, target types.ProcessID) (int, error) {
	if err := c.Validate(); err != nil {
		return 0, fmt.Errorf("treas: repair: %w", err)
	}
	if c.Algorithm != cfg.TREAS {
		return 0, fmt.Errorf("treas: repair applies to TREAS configurations, not %q", c.Algorithm)
	}
	targetIdx, ok := c.ServerIndex(target)
	if !ok {
		return 0, fmt.Errorf("treas: repair target %s is not a member of %s", target, c.ID)
	}
	code, err := erasure.New(c.N(), c.K)
	if err != nil {
		return 0, err
	}

	// 1a. Ask the target what it already holds (it must be reachable — a
	// crashed server cannot be repaired, only reconfigured away).
	targetList, err := transport.InvokeTyped[listResp](ctx, rpc, target,
		transport.Addr{Service: ServiceName, Key: c.Key, Config: string(c.ID), Type: msgQueryList}, listReq{})
	if err != nil {
		return 0, fmt.Errorf("treas: repair target %s unreachable: %w", target, err)
	}
	targetHas := make(map[tag.Tag]bool, len(targetList.Entries))
	for _, e := range targetList.Entries {
		if e.HasElem {
			targetHas[e.Tag] = true
		}
	}

	// 1b. Collect lists from a quorum (the donors).
	q := c.Quorum()
	got, err := transport.Broadcast(ctx, rpc, c.Servers,
		transport.Phase[listResp]{Service: ServiceName, Key: c.Key, Config: string(c.ID), Type: msgQueryList, Body: listReq{}},
		transport.AtLeast[listResp](q.Size()),
	)
	if err != nil {
		return 0, fmt.Errorf("treas: repair list collection on %s: %w", c.ID, err)
	}

	// Index donor elements per tag.
	type tagState struct {
		valueLen int
		elems    map[int][]byte
	}
	donors := make(map[tag.Tag]*tagState)
	for _, g := range got {
		if g.Value.Index == targetIdx {
			continue
		}
		for _, e := range g.Value.Entries {
			if !e.HasElem {
				continue
			}
			ts, ok := donors[e.Tag]
			if !ok {
				ts = &tagState{valueLen: e.ValueLen, elems: make(map[int][]byte)}
				donors[e.Tag] = ts
			}
			ts.elems[g.Value.Index] = e.Elem
		}
	}

	// 2–4. Decode, re-encode the target's shard, install.
	repaired := 0
	for t, ts := range donors {
		if targetHas[t] || len(ts.elems) < c.K {
			continue
		}
		value, err := code.Decode(ts.elems, ts.valueLen)
		if err != nil {
			return repaired, fmt.Errorf("treas: repair decode of tag %v: %w", t, err)
		}
		shards, err := code.Encode(value)
		if err != nil {
			return repaired, fmt.Errorf("treas: repair re-encode of tag %v: %w", t, err)
		}
		req := putDataReq{Tag: t, Elem: shards[targetIdx], ValueLen: ts.valueLen}
		if _, err := transport.InvokeTyped[struct{}](ctx, rpc, target,
			transport.Addr{Service: ServiceName, Key: c.Key, Config: string(c.ID), Type: msgPutData}, req); err != nil {
			return repaired, fmt.Errorf("treas: repair install of tag %v at %s: %w", t, target, err)
		}
		repaired++
	}
	return repaired, nil
}
