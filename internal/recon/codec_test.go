package recon

import (
	"testing"

	"github.com/ares-storage/ares/internal/cfg"
	"github.com/ares-storage/ares/internal/transport"
	"github.com/ares-storage/ares/internal/transport/bodytest"
	"github.com/ares-storage/ares/internal/types"
)

// bodyKinds builds a fresh decode target for each binary body; the fuzz
// input's kind byte picks one.
var bodyKinds = []func() bodytest.Body{
	func() bodytest.Body { return new(readConfigResp) },
}

func sampleNext(status cfg.Status) cfg.Entry {
	return cfg.Entry{Status: status, Cfg: cfg.Configuration{
		ID: "store/k1/c4", Key: "k1", Algorithm: cfg.TREAS,
		Servers: []types.ProcessID{"s1", "s2", "s3", "s4", "s5"}, K: 3, Delta: 4,
	}}
}

// FuzzBodyDecode drives the read-config reply decoder over arbitrary bytes
// (bodytest.CheckDecode's properties). The seeds are its own encodings, so
// the seed corpus runs as a round-trip test in tier-1.
func FuzzBodyDecode(f *testing.F) {
	for _, s := range []bodytest.Body{
		&readConfigResp{},
		&readConfigResp{HasNext: true, Next: sampleNext(cfg.Pending)},
		&readConfigResp{HasNext: true, Next: sampleNext(cfg.Finalized)},
		&readConfigResp{HasNext: true, Next: cfg.Entry{Status: cfg.Finalized, Cfg: cfg.Configuration{ID: "c1", Algorithm: cfg.ABD, Servers: []types.ProcessID{"s1"}, Delta: -1}}},
	} {
		f.Add(uint8(0), s.AppendBody(nil))
	}
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		bodytest.CheckDecode(t, bodyKinds[int(kind)%len(bodyKinds)], data)
	})
}

// TestBudgetBodyAllocs pins the allocations of the read-config reply's
// encode (the payload) and decode: the target alone without a successor;
// with one, also the ID, key, algorithm, server slice and one string per
// server.
func TestBudgetBodyAllocs(t *testing.T) {
	for _, tc := range []struct {
		name     string
		v        bodytest.Body
		enc, dec float64
	}{
		{"no successor", &readConfigResp{}, 1, 1},
		{"5-server successor", &readConfigResp{HasNext: true, Next: sampleNext(cfg.Finalized)}, 1, 10},
	} {
		enc, dec := bodytest.Allocs(t, tc.v, bodyKinds[0])
		t.Logf("%s: %.0f allocs to encode, %.0f to decode", tc.name, enc, dec)
		if enc > tc.enc || dec > tc.dec {
			t.Errorf("%s: %.0f allocs to encode, %.0f to decode; budget %.0f and %.0f", tc.name, enc, dec, tc.enc, tc.dec)
		}
	}
}

// TestBudgetHandlerAllocs pins the allocations of one read-config
// HandleKeyed call on an already materialized pointer holding a pending
// successor (no journal): the step every Get and Put starts with.
func TestBudgetHandlerAllocs(t *testing.T) {
	svc := soloPointer()
	write, err := transport.Marshal(writeConfigReq{Next: sampleNext(cfg.Pending)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.HandleKeyed("c", "", "solo", msgWriteConfig, write); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		_, _ = svc.HandleKeyed("c", "", "solo", msgReadConfig, nil)
	})
	t.Logf("%s: %.2f allocs", msgReadConfig, got)
	if got > 1 {
		t.Errorf("%s: %.2f allocs per HandleKeyed, budget 1", msgReadConfig, got)
	}
}
