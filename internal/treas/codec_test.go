package treas

import (
	"bytes"
	"testing"

	"github.com/ares-storage/ares/internal/cfg"
	"github.com/ares-storage/ares/internal/tag"
	"github.com/ares-storage/ares/internal/transport"
	"github.com/ares-storage/ares/internal/transport/bodytest"
	"github.com/ares-storage/ares/internal/types"
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

// TestBudgetHandlerAllocs pins the allocations of one HandleKeyed call per
// data-path message on an already materialized object (no journal): the
// steady server path every Get and Put pays. The put-data repeats one tag,
// so after the first call it is the List's duplicate path.
func TestBudgetHandlerAllocs(t *testing.T) {
	c := cfg.Configuration{ID: "x", Algorithm: cfg.TREAS, Servers: []types.ProcessID{"s1"}, K: 1, Delta: 4}
	src := cfg.NewResolver()
	src.Add(c)
	svc := NewService("s1", src, nil)
	w := tag.Tag{Z: 1, W: "w"}
	list, err := transport.Marshal(listReq{Floor: w})
	if err != nil {
		t.Fatal(err)
	}
	put, err := transport.Marshal(putDataReq{Tag: w, Elem: make([]byte, 1024), ValueLen: 1024})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		msgType string
		payload []byte
		allocs  float64
	}{
		{msgPutData, put, 1},
		{msgQueryList, list, 4},
	} {
		if _, err := svc.HandleKeyed("c", "", "x", tc.msgType, tc.payload); err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(200, func() {
			_, _ = svc.HandleKeyed("c", "", "x", tc.msgType, tc.payload)
		})
		t.Logf("%s: %.2f allocs", tc.msgType, got)
		if got > tc.allocs {
			t.Errorf("%s: %.2f allocs per HandleKeyed, budget %.0f", tc.msgType, got, tc.allocs)
		}
	}
}
