package recon

import (
	"testing"

	"github.com/ares-storage/ares/internal/cfg"
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
