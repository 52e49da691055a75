package abd

// Durability hooks: the ABD register's sole mutation (the write message) is
// journaled before it applies, registers snapshot/restore as (tag, value)
// blobs, and replay re-runs the monotone apply — tag-monotonicity is what
// makes replay-over-snapshot idempotent.

import (
	"fmt"

	"github.com/ares-storage/ares/internal/keystate"
	"github.com/ares-storage/ares/internal/transport"
	"github.com/ares-storage/ares/internal/types"
)

// opWrite journals a msgWrite payload.
const opWrite byte = 1

var _ keystate.DurableService = (*Service)(nil)

// DurableFamily implements keystate.DurableService.
func (s *Service) DurableFamily() string { return ServiceName }

// SetJournal attaches the write-ahead journal; nil (the default) leaves the
// service purely in-memory.
func (s *Service) SetJournal(j *keystate.Journal) { s.journal.Store(j) }

func (s *Service) journalWrite(key, configID string, payload []byte) (func(), error) {
	jr := s.journal.Load()
	if jr == nil {
		return func() {}, nil
	}
	return jr.Append(key, configID, opWrite, payload)
}

// ReplayApply implements keystate.DurableService: re-run one journaled write.
func (s *Service) ReplayApply(key, configID string, op byte, payload []byte) error {
	if op != opWrite {
		return fmt.Errorf("abd: unknown journal op %d", op)
	}
	st, err := s.state(key, configID)
	if err != nil {
		return err
	}
	var req writeReq
	if err := transport.Unmarshal(payload, &req); err != nil {
		return err
	}
	st.apply(req)
	return nil
}

// SnapshotStates implements keystate.DurableService.
func (s *Service) SnapshotStates(emit func(key, configID string, blob []byte) error) error {
	var outerErr error
	s.states.Range(func(ref keystate.Ref, st *register) bool {
		st.mu.Lock()
		blob, err := transport.Marshal(pairBody{Tag: st.tag, Value: st.val})
		st.mu.Unlock()
		if err == nil {
			err = emit(ref.Key, ref.Config, blob)
		}
		outerErr = err
		return err == nil
	})
	return outerErr
}

// RestoreState implements keystate.DurableService. The merge is tag-monotone,
// so restoring a snapshot older than already-replayed log records never
// regresses the register.
func (s *Service) RestoreState(key, configID string, blob []byte) error {
	var snap pairBody
	if err := transport.Unmarshal(blob, &snap); err != nil {
		return err
	}
	st, err := s.state(key, configID)
	if err != nil {
		return err
	}
	st.apply(snap)
	return nil
}

// apply advances the register iff the incoming tag is newer — the one shared
// mutation path for live writes, replay, and snapshot restore. It stores a
// clone: req.Value aliases the payload it was decoded from.
func (st *register) apply(req pairBody) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.tag.Less(req.Tag) {
		st.tag = req.Tag
		st.val = types.Value(req.Value).Clone()
	}
}
