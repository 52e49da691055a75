package treas

// Durability hooks. Two mutations journal: put-data (Alg. 3) and the §5
// fwd-elem push — both idempotent under replay (inserts dedup on tag, the
// δ+1 GC re-trims, and re-accumulating a pending decode re-derives the same
// local shard). req-forward is NOT journaled: its local effect is only the
// volatile forward-dedup set, and its outbound sends must not re-fire during
// recovery. Snapshots capture the List (tags, coded elements, ⊥
// placeholders); in-flight §5 transfer state (pending decodes, recon/forward
// dedup) is deliberately volatile — a reconfiguration interrupted by a crash
// re-drives the transfer from the reconfigurer's side.

import (
	"fmt"

	"github.com/ares-storage/ares/internal/transport"
)

// Journal ops.
const (
	opPutData byte = 1
	opFwdElem byte = 2
)

// objSnap is the snapshot blob of one object: its List entries.
type objSnap struct {
	Entries []listEntry
}

// Replay implements keystate.State.
func (st *objState) Replay(op byte, payload []byte) error {
	var err error
	switch op {
	case opPutData:
		_, err = st.handlePutData(payload)
	case opFwdElem:
		_, err = st.handleFwdElem(payload)
	default:
		return fmt.Errorf("treas: unknown journal op %d", op)
	}
	return err
}

// Snapshot implements keystate.State.
func (st *objState) Snapshot() ([]byte, error) {
	st.mu.Lock()
	snap := objSnap{Entries: make([]listEntry, 0, len(st.list))}
	for _, e := range st.list {
		snap.Entries = append(snap.Entries, e)
	}
	st.mu.Unlock()
	return transport.Marshal(snap)
}

// Restore implements keystate.State. Entries merge into the List (an
// element never downgrades to ⊥), then the δ+1 bound re-trims — restoring
// an older snapshot under newer replayed records converges to the same List
// the live run held.
func (st *objState) Restore(blob []byte) error {
	var snap objSnap
	if err := transport.Unmarshal(blob, &snap); err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, e := range snap.Entries {
		if cur, ok := st.list[e.Tag]; ok && (cur.HasElem || !e.HasElem) {
			continue
		}
		st.list[e.Tag] = e
	}
	st.gcLocked()
	return nil
}
