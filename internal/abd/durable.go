package abd

// Durability hooks: the ABD register's sole mutation (the write message) is
// journaled before it applies, registers snapshot/restore as (tag, value)
// blobs, and replay re-runs the monotone apply — tag-monotonicity is what
// makes replay-over-snapshot idempotent.

import (
	"fmt"

	"github.com/ares-storage/ares/internal/transport"
	"github.com/ares-storage/ares/internal/types"
)

// opWrite journals a msgWrite payload.
const opWrite byte = 1

// Replay implements keystate.State: re-run one journaled write.
func (st *register) Replay(op byte, payload []byte) error {
	if op != opWrite {
		return fmt.Errorf("abd: unknown journal op %d", op)
	}
	return st.Restore(payload)
}

// Snapshot implements keystate.State.
func (st *register) Snapshot() ([]byte, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return transport.Marshal(pairBody{Tag: st.tag, Value: st.val})
}

// Restore implements keystate.State. The merge is tag-monotone, so restoring
// a snapshot older than already-replayed log records never regresses the
// register. A write's payload and a snapshot blob are the same pairBody.
func (st *register) Restore(blob []byte) error {
	var p pairBody
	if err := transport.Unmarshal(blob, &p); err != nil {
		return err
	}
	st.apply(p)
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
