package consensus

// Durability hooks. A Paxos acceptor's promises are the one state in this
// system that MUST survive a crash for safety (not just liveness): an
// acceptor that forgets a promise can accept a conflicting older ballot and
// split a decision. Prepare, accept, and decide therefore all journal before
// they mutate — and before the reply leaves the server. Replay re-runs the
// same ballot-monotone transitions, so records and snapshots compose
// idempotently. Retiring an acceptor is safe once its configuration's
// successor is finalized: the instance's outcome is then recorded in the
// quorum's nextC pointers, which never change after finalization (Lemma 46),
// so no future proposer needs this acceptor's promises.

import (
	"fmt"

	"github.com/ares-storage/ares/internal/transport"
)

// Journal ops.
const (
	opPrepare byte = 1
	opAccept  byte = 2
	opDecide  byte = 3
)

// acceptorSnap is the snapshot blob of one acceptor.
type acceptorSnap struct {
	Promised      Ballot
	HasPromised   bool
	Accepted      Ballot
	HasAccepted   bool
	AcceptedValue []byte
	Decided       bool
	DecidedValue  []byte
}

// Replay implements keystate.State.
func (st *acceptor) Replay(op byte, payload []byte) error {
	switch op {
	case opPrepare:
		var req prepareReq
		if err := transport.Unmarshal(payload, &req); err != nil {
			return err
		}
		st.prepare(req)
	case opAccept:
		var req acceptReq
		if err := transport.Unmarshal(payload, &req); err != nil {
			return err
		}
		st.accept(req)
	case opDecide:
		var req decideReq
		if err := transport.Unmarshal(payload, &req); err != nil {
			return err
		}
		st.decide(req.Value)
	default:
		return fmt.Errorf("consensus: unknown journal op %d", op)
	}
	return nil
}

// Snapshot implements keystate.State.
func (st *acceptor) Snapshot() ([]byte, error) {
	st.mu.Lock()
	snap := acceptorSnap{
		Promised: st.promised, HasPromised: st.hasPromised,
		Accepted: st.accepted, HasAccepted: st.hasAccepted, AcceptedValue: st.acceptedValue,
		Decided: st.decided, DecidedValue: st.decidedValue,
	}
	st.mu.Unlock()
	return transport.Marshal(snap)
}

// Restore implements keystate.State. Each component merges
// ballot-monotonically, so a snapshot restored under replayed log records
// never regresses a promise or resurrects a pre-decision state.
func (st *acceptor) Restore(blob []byte) error {
	var snap acceptorSnap
	if err := transport.Unmarshal(blob, &snap); err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if snap.HasPromised && (!st.hasPromised || st.promised.Less(snap.Promised)) {
		st.promised = snap.Promised
		st.hasPromised = true
	}
	if snap.HasAccepted && (!st.hasAccepted || st.accepted.Less(snap.Accepted)) {
		st.accepted = snap.Accepted
		st.acceptedValue = snap.AcceptedValue
		st.hasAccepted = true
	}
	if snap.Decided && !st.decided {
		st.decided = true
		st.decidedValue = snap.DecidedValue
	}
	return nil
}
