package treas

import (
	"bytes"
	"testing"

	"github.com/ares-storage/ares/internal/tag"
	"github.com/ares-storage/ares/internal/transport/bodytest"
)

// bodyKinds builds a fresh decode target for each binary body; the fuzz
// input's kind byte picks one.
var bodyKinds = []func() bodytest.Body{
	func() bodytest.Body { return new(tagResp) },
	func() bodytest.Body { return new(listResp) },
	func() bodytest.Body { return new(putDataReq) },
	func() bodytest.Body { return new(objSnap) },
	func() bodytest.Body { return new(listReq) },
}

// sampleEntries is a List as a server holds it: the initial tag's element,
// a ⊥ placeholder left by garbage collection, and a live element.
func sampleEntries() []listEntry {
	return []listEntry{
		{Tag: tag.Zero, Elem: []byte{0, 0}, HasElem: true},
		{Tag: tag.Tag{Z: 1, W: "w1"}, ValueLen: 5},
		{Tag: tag.Tag{Z: 2, W: "w2"}, Elem: bytes.Repeat([]byte{7}, 86), HasElem: true, ValueLen: 256},
	}
}

// bodySamples are representative values of each kind (index = kind).
func bodySamples() [][]bodytest.Body {
	w := tag.Tag{Z: 9, W: "client-3"}
	return [][]bodytest.Body{
		{&tagResp{}, &tagResp{Tag: w}},
		{&listResp{}, &listResp{Index: 4, Entries: sampleEntries()}},
		{&putDataReq{}, &putDataReq{Tag: w, Elem: bytes.Repeat([]byte{1}, 512), ValueLen: 1500}},
		{&objSnap{}, &objSnap{Entries: sampleEntries()}},
		{&listReq{}, &listReq{Floor: w}},
	}
}

// FuzzBodyDecode drives every TREAS binary body decoder over arbitrary
// bytes (bodytest.CheckDecode's properties). The seeds are each body's own
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

// TestBudgetBodyAllocs pins the allocations of each data-path body's encode
// (the payload) and decode (the target, the entry slice, and one string per
// tag's writer ID; coded elements alias the payload).
func TestBudgetBodyAllocs(t *testing.T) {
	w := tag.Tag{Z: 9, W: "client-3"}
	for _, tc := range []struct {
		kind     int
		v        bodytest.Body
		enc, dec float64
	}{
		{0, &tagResp{Tag: w}, 1, 2},
		{1, &listResp{Index: 4, Entries: sampleEntries()}, 1, 4},
		{2, &putDataReq{Tag: w, Elem: make([]byte, 512), ValueLen: 1500}, 1, 2},
		{4, &listReq{Floor: w}, 1, 2},
	} {
		enc, dec := bodytest.Allocs(t, tc.v, bodyKinds[tc.kind])
		t.Logf("%T: %.0f allocs to encode, %.0f to decode", tc.v, enc, dec)
		if enc > tc.enc || dec > tc.dec {
			t.Errorf("%T: %.0f allocs to encode, %.0f to decode; budget %.0f and %.0f", tc.v, enc, dec, tc.enc, tc.dec)
		}
	}
}
