package recon

// Durability hooks. The pointer's one mutation — write-config — journals
// before it applies. Retirement persists as a meta-log record written by the
// preRetire hook BEFORE the in-memory tombstone: the record carries the full
// finalized successor entry, so recovery can re-register a successor this
// server never had installed. Replay applies pointer transitions WITHOUT the
// retire side effects (no fan-out, no gossip); retirements replay from the
// meta log instead, and any pointer that reached finalized without its
// retire record landing (crash in the gap) is healed by
// CompleteRetirements after recovery.

import (
	"fmt"

	"github.com/ares-storage/ares/internal/cfg"
	"github.com/ares-storage/ares/internal/keystate"
	"github.com/ares-storage/ares/internal/transport"
)

// opWriteConfig journals a msgWriteConfig payload.
const opWriteConfig byte = 1

// pointerSnap is the snapshot blob of one nextC pointer.
type pointerSnap struct {
	HasNext bool
	Next    cfg.Entry
}

// PreRetireFunc journals an imminent retirement of (key, configID),
// superseded by next, before any in-memory lifecycle mutation.
type PreRetireFunc func(key, configID string, next cfg.Entry) error

// SetPreRetire installs the durability hook run at the top of every
// retirement (nil disables). Errors are deliberately non-fatal to the
// retirement itself: the finalized write-config record IS journaled, so a
// lost retire record is re-derived by CompleteRetirements on the next
// recovery.
func (s *Service) SetPreRetire(fn PreRetireFunc) { s.preRetire = fn }

// Replay implements keystate.State: re-run one write-config transition with
// no retire/gossip side effects.
func (st *pointer) Replay(op byte, payload []byte) error {
	if op != opWriteConfig {
		return fmt.Errorf("recon: unknown journal op %d", op)
	}
	var req writeConfigReq
	if err := transport.Unmarshal(payload, &req); err != nil {
		return err
	}
	st.apply(req.Next)
	return nil
}

// Snapshot implements keystate.State.
func (st *pointer) Snapshot() ([]byte, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return transport.Marshal(pointerSnap{HasNext: st.hasNext, Next: st.next})
}

// Restore implements keystate.State. A ⊥ blob leaves the pointer at ⊥.
func (st *pointer) Restore(blob []byte) error {
	var snap pointerSnap
	if err := transport.Unmarshal(blob, &snap); err != nil {
		return err
	}
	if snap.HasNext {
		st.apply(snap.Next)
	}
	return nil
}

// apply merges one observed successor entry into the pointer, monotonically:
// ⊥ adopts anything, pending upgrades to finalized, finalized never changes
// (Lemma 46). Unlike the live handler it tolerates rather than rejects a
// conflicting entry — replay is reconstructing history, not arbitrating it —
// by keeping the finalized (or first) entry.
func (st *pointer) apply(next cfg.Entry) {
	st.mu.Lock()
	defer st.mu.Unlock()
	switch {
	case !st.hasNext:
		st.next = next
		st.hasNext = true
	case st.next.Status == cfg.Pending && next.Status == cfg.Finalized:
		st.next = next
	}
}

// CompleteRetirements re-runs the retirement of every pointer whose
// successor is finalized but whose (key, config) pair is not tombstoned —
// the crash window between a finalized write-config landing in the stripe
// log and its retire record landing in the meta log. Call once after
// recovery, before serving traffic. Returns how many retirements ran.
func (s *Service) CompleteRetirements() int {
	ret, ok := s.cfgs.(cfg.RetirementSource)
	if !ok || !s.gc {
		return 0
	}
	type pending struct {
		key, configID string
		next          cfg.Entry
	}
	var todo []pending
	s.states.Range(func(ref keystate.Ref, st *pointer) bool {
		st.mu.Lock()
		finalized := st.hasNext && st.next.Status == cfg.Finalized
		next := st.next
		st.mu.Unlock()
		if !finalized {
			return true
		}
		if _, retired := ret.RetiredSuccessor(ref.Key, cfg.ID(ref.Config)); retired {
			return true
		}
		todo = append(todo, pending{ref.Key, ref.Config, next})
		return true
	})
	for _, p := range todo {
		s.retire(p.key, p.configID, p.next)
	}
	return len(todo)
}
