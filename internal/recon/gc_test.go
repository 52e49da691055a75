package recon

import (
	"testing"

	"github.com/ares-storage/ares/internal/cfg"
	"github.com/ares-storage/ares/internal/transport"
)

// Pointer-service lifecycle tests: the pending → finalized transition must
// retire the pointer, fan out to the host's services, and keep answering
// read-config for the retired configuration from the resolver-backed
// archive.

// gcWorld builds a one-member pointer service with lifecycle enabled and a
// fan-out recorder.
func gcWorld(t *testing.T) (*Service, *cfg.Resolver, *[]string) {
	t.Helper()
	src := cfg.NewResolver()
	c0 := abdCfg("gc/k/c0", "x", 3)
	c0.Key = "k"
	c1 := abdCfg("gc/k/c1", "x", 3)
	c1.Key = "k"
	src.Add(c0)
	src.Add(c1)
	svc := NewService("x1", src)
	var retired []string
	svc.SetLifecycle(nil, func(key, configID string, next cfg.Entry) int {
		retired = append(retired, key+"/"+configID+"→"+string(next.Cfg.ID))
		return 2 // pretend two service states dropped
	})
	return svc, src, &retired
}

func TestFinalizationRetiresPointer(t *testing.T) {
	t.Parallel()
	svc, src, retired := gcWorld(t)
	c1 := abdCfg("gc/k/c1", "x", 3)
	c1.Key = "k"
	entryP := cfg.Entry{Cfg: c1, Status: cfg.Pending}
	entryF := cfg.Entry{Cfg: c1, Status: cfg.Finalized}

	if _, err := svc.HandleKeyed("q", "k", "gc/k/c0", msgWriteConfig, transport.MustMarshal(writeConfigReq{Next: entryP})); err != nil {
		t.Fatal(err)
	}
	if svc.Family().Len() != 1 || len(*retired) != 0 {
		t.Fatalf("pending write: states=%d retired=%v, want 1 state and no retirement", svc.Family().Len(), *retired)
	}
	if _, err := svc.HandleKeyed("q", "k", "gc/k/c0", msgWriteConfig, transport.MustMarshal(writeConfigReq{Next: entryF})); err != nil {
		t.Fatal(err)
	}
	if svc.Family().Len() != 0 {
		t.Fatalf("finalized write left %d pointer states, want 0 (retired to archive)", svc.Family().Len())
	}
	if len(*retired) != 1 || (*retired)[0] != "k/gc/k/c0→gc/k/c1" {
		t.Fatalf("fan-out calls = %v, want exactly the finalized pair", *retired)
	}
	// pointer delete (1) + fan-out's report (2)
	if got := svc.RetiredStates(); got != 3 {
		t.Fatalf("RetiredStates = %d, want 3", got)
	}
	if succ, ok := src.RetiredSuccessor("k", "gc/k/c0"); !ok || succ != "gc/k/c1" {
		t.Fatalf("resolver tombstone = (%q, %v), want (gc/k/c1, true)", succ, ok)
	}

	// read-config on the retired pair is answered from the archive with the
	// finalized successor; write-config is an ACK no-op; replays never
	// re-trigger the fan-out.
	resp, err := svc.HandleKeyed("q", "k", "gc/k/c0", msgReadConfig, nil)
	if err != nil {
		t.Fatalf("read-config on retired: %v", err)
	}
	rc := resp.(readConfigResp)
	if !rc.HasNext || rc.Next.Cfg.ID != "gc/k/c1" || rc.Next.Status != cfg.Finalized {
		t.Fatalf("archived read-config = %+v, want finalized gc/k/c1", rc)
	}
	if _, err := svc.HandleKeyed("q", "k", "gc/k/c0", msgWriteConfig, transport.MustMarshal(writeConfigReq{Next: entryF})); err != nil {
		t.Fatalf("write-config on retired: %v", err)
	}
	if len(*retired) != 1 {
		t.Fatalf("replayed finalization re-triggered the fan-out: %v", *retired)
	}
	// Next answers from the archive too.
	if next, ok := svc.Next("k", "gc/k/c0"); !ok || next.Cfg.ID != "gc/k/c1" {
		t.Fatalf("Next on retired = (%+v, %v), want archived gc/k/c1", next, ok)
	}
}

// TestLifecycleDisabledKeepsPointers pins the opt-in: without SetLifecycle a
// finalization mutates the pointer but retires nothing.
func TestLifecycleDisabledKeepsPointers(t *testing.T) {
	t.Parallel()
	src := cfg.NewResolver()
	c0 := abdCfg("keep/k/c0", "x", 3)
	c0.Key = "k"
	src.Add(c0)
	svc := NewService("x1", src)
	c1 := abdCfg("keep/k/c1", "x", 3)
	c1.Key = "k"
	if _, err := svc.HandleKeyed("q", "k", "keep/k/c0", msgWriteConfig, transport.MustMarshal(writeConfigReq{Next: cfg.Entry{Cfg: c1, Status: cfg.Finalized}})); err != nil {
		t.Fatal(err)
	}
	if svc.Family().Len() != 1 {
		t.Fatalf("states = %d, want 1 (no GC without SetLifecycle)", svc.Family().Len())
	}
	if src.RetiredCount() != 0 {
		t.Fatalf("resolver tombstones = %d, want 0", src.RetiredCount())
	}
}
