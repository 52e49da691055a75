package treas

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/ares-storage/ares/internal/cfg"
	"github.com/ares-storage/ares/internal/tag"
	"github.com/ares-storage/ares/internal/transport"
	"github.com/ares-storage/ares/internal/types"
)

// objOf returns (materializing if needed) a service's per-object state, for
// white-box assertions on Lists and §5 bookkeeping.
func objOf(t *testing.T, svc *Service, key, configID string) *objState {
	t.Helper()
	st, err := svc.states.State(key, configID)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// deployPair installs two TREAS configurations (source and target) on one
// simnet and returns their services.
func deployPair(t *testing.T, net *transport.Simnet, srcN, srcK, dstN, dstK int) (src, dst cfg.Configuration, srcSvcs, dstSvcs map[types.ProcessID]*Service) {
	t.Helper()
	src, srcSvcs = deploy(t, "src", srcN, srcK, 2, net)
	dst, dstSvcs = deploy(t, "dst", dstN, dstK, 2, net)
	return src, dst, srcSvcs, dstSvcs
}

// drainAll waits for background relay/forward sends on every service, twice:
// a relayed request's handler registers new sends on the receiving service,
// so one pass per relay depth (the echo relay has depth 2) suffices.
func drainAll(net *transport.Simnet, groups ...map[types.ProcessID]*Service) {
	for pass := 0; pass < 2; pass++ {
		for _, svcs := range groups {
			for _, svc := range svcs {
				svc.DrainSends()
			}
		}
		net.Quiesce()
	}
}

// writeTo puts a tagged value into a configuration and quiesces the network.
func writeTo(t *testing.T, net *transport.Simnet, c cfg.Configuration, tg tag.Tag, v types.Value) {
	t.Helper()
	client, err := NewClient(c, net.Client("w1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := client.PutData(context.Background(), tag.Pair{Tag: tg, Value: v}); err != nil {
		t.Fatal(err)
	}
	net.Quiesce()
}

func TestRequestForwardMovesState(t *testing.T) {
	t.Parallel()
	net := transport.NewSimnet()
	src, dst, _, _ := deployPair(t, net, 5, 3, 5, 3)
	written := tag.Tag{Z: 4, W: "w1"}
	payload := make(types.Value, 12*1024)
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	writeTo(t, net, src, written, payload)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := RequestForward(ctx, net.Client("rc1"), "rc1", src, dst, written); err != nil {
		t.Fatal(err)
	}

	// The target configuration must now decode the value natively.
	reader, err := NewClient(dst, net.Client("r1"))
	if err != nil {
		t.Fatal(err)
	}
	pair, err := reader.GetData(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if pair.Tag != written || !pair.Value.Equal(payload) {
		t.Fatalf("target returned (%v, %d bytes)", pair.Tag, len(pair.Value))
	}
}

func TestRequestForwardReencodesAcrossCodes(t *testing.T) {
	t.Parallel()
	// [5,3] → [8,6]: target shards must be re-encoded, not copied.
	net := transport.NewSimnet()
	src, dst, _, dstSvcs := deployPair(t, net, 5, 3, 8, 6)
	written := tag.Tag{Z: 2, W: "w1"}
	payload := make(types.Value, 6*1024+5) // unaligned for both codes
	for i := range payload {
		payload[i] = byte(i*13 + 1)
	}
	writeTo(t, net, src, written, payload)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := RequestForward(ctx, net.Client("rc1"), "rc1", src, dst, written); err != nil {
		t.Fatal(err)
	}
	drainAll(net, dstSvcs)

	// Every target server that received the tag stores a [8,6] shard of the
	// right size.
	wantShard := (len(payload) + 5) / 6
	holders := 0
	for id, svc := range dstSvcs {
		st := objOf(t, svc, "", string(dst.ID))
		st.mu.Lock()
		entry, ok := st.list[written]
		st.mu.Unlock()
		if !ok {
			continue
		}
		holders++
		if entry.HasElem && len(entry.Elem) != wantShard {
			t.Errorf("%s shard = %d bytes, want %d ([8,6] re-encode)", id, len(entry.Elem), wantShard)
		}
	}
	if holders < dst.Quorum().Size() {
		t.Fatalf("only %d target servers hold the tag, want >= %d", holders, dst.Quorum().Size())
	}

	reader, err := NewClient(dst, net.Client("r1"))
	if err != nil {
		t.Fatal(err)
	}
	pair, err := reader.GetData(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !pair.Value.Equal(payload) {
		t.Fatal("value corrupted across re-encoding")
	}
}

// TestMdPrimitiveAllOrNone is the §5 md-primitive property: if the
// reconfigurer's request reaches even a single source server, every
// non-faulty source server relays it, so the transfer completes although the
// reconfigurer crashed after one send.
func TestMdPrimitiveAllOrNone(t *testing.T) {
	t.Parallel()
	net := transport.NewSimnet()
	src, dst, srcSvcs, dstSvcs := deployPair(t, net, 5, 3, 5, 3)
	written := tag.Tag{Z: 7, W: "w1"}
	payload := make(types.Value, 9*1024)
	writeTo(t, net, src, written, payload)

	// Simulate the reconfigurer crashing after reaching exactly one source
	// server: deliver REQ-FW to src.Servers[0] only, directly.
	req := reqForwardReq{Tag: written, Target: dst, RC: "rc-crashed", Relayed: false}
	resp, err := net.Client("rc-crashed").Invoke(context.Background(), src.Servers[0], transport.Request{
		Service: ServiceName,
		Config:  string(src.ID),
		Type:    msgReqForward,
		Payload: transport.MustMarshal(req),
	})
	if err != nil || !resp.OK {
		t.Fatalf("single delivery failed: %v %s", err, resp.Err)
	}
	drainAll(net, srcSvcs, dstSvcs)

	// Despite the crash, the echo-relay must have spread the request and the
	// target must hold a decodable copy.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	reader, err := NewClient(dst, net.Client("r1"))
	if err != nil {
		t.Fatal(err)
	}
	pair, err := reader.GetData(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if pair.Tag != written || !pair.Value.Equal(payload) {
		t.Fatalf("target state after relayed transfer: (%v, %d bytes)", pair.Tag, len(pair.Value))
	}
}

func TestForwardDedup(t *testing.T) {
	t.Parallel()
	// Repeated REQ-FW deliveries (client retry + echoes) must not multiply
	// work or corrupt state.
	net := transport.NewSimnet()
	src, dst, _, _ := deployPair(t, net, 5, 3, 5, 3)
	written := tag.Tag{Z: 1, W: "w1"}
	payload := make(types.Value, 3*1024)
	writeTo(t, net, src, written, payload)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		if err := RequestForward(ctx, net.Client("rc1"), "rc1", src, dst, written); err != nil {
			t.Fatalf("attempt %d: %v", i, err)
		}
	}
	net.Quiesce()
	reader, err := NewClient(dst, net.Client("r1"))
	if err != nil {
		t.Fatal(err)
	}
	pair, err := reader.GetData(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !pair.Value.Equal(payload) {
		t.Fatal("value corrupted by repeated transfers")
	}
}

func TestForwardWithSourceCrashWithinBound(t *testing.T) {
	t.Parallel()
	// [5,3] tolerates f=1: transfer must succeed with one source server down
	// (k=3 elements still reachable).
	net := transport.NewSimnet()
	src, dst, _, _ := deployPair(t, net, 5, 3, 5, 3)
	written := tag.Tag{Z: 3, W: "w1"}
	payload := make(types.Value, 5*1024)
	writeTo(t, net, src, written, payload)
	net.Crash(src.Servers[0])

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := RequestForward(ctx, net.Client("rc1"), "rc1", src, dst, written); err != nil {
		t.Fatal(err)
	}
	reader, err := NewClient(dst, net.Client("r1"))
	if err != nil {
		t.Fatal(err)
	}
	pair, err := reader.GetData(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !pair.Value.Equal(payload) {
		t.Fatal("transfer under source crash corrupted value")
	}
}

func TestHandleFwdElemIgnoresServedReconfigurer(t *testing.T) {
	t.Parallel()
	c := cfg.Configuration{ID: "x", Algorithm: cfg.TREAS, K: 2, Delta: 2,
		Servers: []types.ProcessID{"s1", "s2", "s3"}}
	src := cfg.NewResolver()
	src.Add(c)
	svc := NewService("s1", src, nil)
	st := objOf(t, svc, "", "x")
	// Mark rc as served, then send a forwarded element: it must be ignored
	// (Alg. 9 line 9) and leave no pending state behind.
	st.mu.Lock()
	st.recons["rc1"] = true
	st.mu.Unlock()
	req := fwdElemReq{Tag: tag.Tag{Z: 9, W: "w"}, SrcIndex: 0, Elem: []byte{1}, ValueLen: 1, SrcN: 3, SrcK: 1, RC: "rc1"}
	if _, err := svc.HandleKeyed("peer", "", "x", msgFwdElem, transport.MustMarshal(req)); err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	_, inList := st.list[req.Tag]
	pending := len(st.pendingD)
	st.mu.Unlock()
	if inList || pending != 0 {
		t.Fatal("served reconfigurer's element was processed")
	}
}

func TestHasTagReportsInstallation(t *testing.T) {
	t.Parallel()
	c := cfg.Configuration{ID: "x", Algorithm: cfg.TREAS, K: 1, Delta: 2,
		Servers: []types.ProcessID{"s1"}}
	src := cfg.NewResolver()
	src.Add(c)
	svc := NewService("s1", src, nil)
	st := objOf(t, svc, "", "x")
	query := func(tg tag.Tag) bool {
		out, err := svc.HandleKeyed("rc", "", "x", msgHasTag, transport.MustMarshal(hasTagReq{Tag: tg}))
		if err != nil {
			t.Fatal(err)
		}
		return out.(hasTagResp).Done
	}
	if query(tag.Tag{Z: 5, W: "w"}) {
		t.Fatal("has-tag true before installation")
	}
	if !query(tag.Zero) {
		t.Fatal("has-tag false for t0")
	}
	st.mu.Lock()
	st.insertLocked(tag.Tag{Z: 5, W: "w"}, []byte{1}, 1)
	st.mu.Unlock()
	if !query(tag.Tag{Z: 5, W: "w"}) {
		t.Fatal("has-tag false after installation")
	}
}

func TestRequestForwardNoRPCOnService(t *testing.T) {
	t.Parallel()
	// A service constructed without a transport cannot forward; the request
	// must fail loudly rather than silently dropping state.
	c := cfg.Configuration{ID: "x", Algorithm: cfg.TREAS, K: 1, Delta: 2,
		Servers: []types.ProcessID{"s1"}}
	src := cfg.NewResolver()
	src.Add(c)
	svc := NewService("s1", src, nil)
	req := reqForwardReq{Tag: tag.Zero, Target: c, RC: "rc"}
	if _, err := svc.HandleKeyed("rc", "", "x", msgReqForward, transport.MustMarshal(req)); err == nil {
		t.Fatal("forward without transport succeeded")
	}
}

func TestTransferPreservesListBound(t *testing.T) {
	t.Parallel()
	// Forwarded state obeys the same δ+1 GC rule as written state.
	net := transport.NewSimnet()
	src, dst, _, dstSvcs := deployPair(t, net, 5, 3, 5, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for i := 1; i <= 5; i++ {
		tg := tag.Tag{Z: int64(i), W: "w1"}
		writeTo(t, net, src, tg, make(types.Value, 2048))
		if err := RequestForward(ctx, net.Client(types.ProcessID(fmt.Sprintf("rc%d", i))), types.ProcessID(fmt.Sprintf("rc%d", i)), src, dst, tg); err != nil {
			t.Fatal(err)
		}
	}
	net.Quiesce()
	for id, svc := range dstSvcs {
		_, withElems := svc.ListSize("", string(dst.ID))
		if withElems > dst.Delta+1 {
			t.Errorf("%s holds %d elements after transfers, want <= δ+1 = %d", id, withElems, dst.Delta+1)
		}
	}
}
