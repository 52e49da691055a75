package abd

import (
	"bytes"
	"testing"

	"github.com/ares-storage/ares/internal/tag"
	"github.com/ares-storage/ares/internal/transport"
	"github.com/ares-storage/ares/internal/transport/bodytest"
)

// bodyKinds builds a fresh decode target for each binary body; the fuzz
// input's kind byte picks one.
var bodyKinds = []func() bodytest.Body{
	func() bodytest.Body { return new(tagResp) },
	func() bodytest.Body { return new(pairBody) },
}

// bodySamples are representative values of each kind (index = kind).
func bodySamples() [][]bodytest.Body {
	w := tag.Tag{Z: 41, W: "client-7"}
	return [][]bodytest.Body{
		{&tagResp{}, &tagResp{Tag: w}, &tagResp{Tag: tag.Tag{Z: -3, W: "x"}}},
		{&pairBody{}, &pairBody{Tag: w, Value: []byte("v")}, &pairBody{Tag: w, Value: bytes.Repeat([]byte{0xAB}, 1024)}},
	}
}

// FuzzBodyDecode drives every ABD binary body decoder over arbitrary bytes
// (bodytest.CheckDecode's properties). The seeds are each body's own
// encodings, so the seed corpus runs as a round-trip test in tier-1.
func FuzzBodyDecode(f *testing.F) {
	for kind, samples := range bodySamples() {
		for _, s := range samples {
			f.Add(uint8(kind), s.AppendBody(nil))
		}
	}
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		bodytest.CheckDecode(t, bodyKinds[int(kind)%len(bodyKinds)], data)
	})
}

// TestBudgetBodyAllocs pins the allocations of each binary body's encode
// (the payload) and decode (the target, plus one string for the tag's
// writer ID; a value aliases the payload).
func TestBudgetBodyAllocs(t *testing.T) {
	w := tag.Tag{Z: 41, W: "client-7"}
	for _, tc := range []struct {
		kind     int
		v        bodytest.Body
		enc, dec float64
	}{
		{0, &tagResp{Tag: w}, 1, 2},
		{1, &pairBody{Tag: w, Value: make([]byte, 1024)}, 1, 2},
	} {
		enc, dec := bodytest.Allocs(t, tc.v, bodyKinds[tc.kind])
		t.Logf("%T: %.0f allocs to encode, %.0f to decode", tc.v, enc, dec)
		if enc > tc.enc || dec > tc.dec {
			t.Errorf("%T: %.0f allocs to encode, %.0f to decode; budget %.0f and %.0f", tc.v, enc, dec, tc.enc, tc.dec)
		}
	}
}

// TestBudgetHandlerAllocs pins the allocations of one HandleKeyed call per
// data-path message on an already materialized register (no journal): the
// steady server path every Get and Put pays.
func TestBudgetHandlerAllocs(t *testing.T) {
	svc, configID := soloService()
	write, err := transport.Marshal(writeReq{Tag: tag.Tag{Z: 1, W: "w"}, Value: make([]byte, 1024)})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		msgType string
		payload []byte
		allocs  float64
	}{
		{msgQueryTag, nil, 1},
		{msgQuery, nil, 1},
		{msgWrite, write, 1},
	} {
		if _, err := svc.HandleKeyed("c", "", configID, tc.msgType, tc.payload); err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(200, func() {
			_, _ = svc.HandleKeyed("c", "", configID, tc.msgType, tc.payload)
		})
		t.Logf("%s: %.2f allocs", tc.msgType, got)
		if got > tc.allocs {
			t.Errorf("%s: %.2f allocs per HandleKeyed, budget %.0f", tc.msgType, got, tc.allocs)
		}
	}
}
