// Package bodytest holds the checks every binary message body
// (transport.BodyEncoder and BodyDecoder) must pass. The protocol packages
// that own such bodies run them from their FuzzBodyDecode and body
// allocation tests.
package bodytest

import (
	"bytes"
	"runtime"
	"testing"

	"github.com/ares-storage/ares/internal/transport"
)

// Body is a pointer to a binary body: it decodes, and (through its value
// methods) encodes.
type Body interface {
	transport.BodyEncoder
	transport.BodyDecoder
}

// CheckDecode decodes data into fresh() and checks the strict-decoder
// properties: the decoder never panics; it allocates no more than a small
// multiple of the input, so no length or count it reads can make it
// allocate beyond what the input accounts for; and any input it accepts
// re-encodes to exactly the same bytes, with BodySize equal to their length.
func CheckDecode(t *testing.T, fresh func() Body, data []byte) {
	t.Helper()
	body := fresh()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := body.DecodeBody(data)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*uint64(len(data))+64<<10 {
		t.Fatalf("decoding %d bytes as %T allocated %d bytes", len(data), body, grew)
	}
	if err != nil {
		return
	}
	again := body.AppendBody(nil)
	if !bytes.Equal(again, data) {
		t.Fatalf("%T accepted %x but re-encodes to %x", body, data, again)
	}
	if n := body.BodySize(); n != len(data) {
		t.Fatalf("%T: BodySize %d for a %d-byte encoding", body, n, len(data))
	}
}

// Allocs measures the allocations of one transport.Marshal of v and one
// transport.Unmarshal of its encoding into a fresh body, as the data path
// makes them: v already boxed in an interface, the decode target a fresh
// pointer.
func Allocs(t *testing.T, v transport.BodyEncoder, fresh func() Body) (encode, decode float64) {
	t.Helper()
	var body any = v
	payload, err := transport.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	encode = testing.AllocsPerRun(100, func() {
		if _, err := transport.Marshal(body); err != nil {
			t.Fatal(err)
		}
	})
	decode = testing.AllocsPerRun(100, func() {
		if err := transport.Unmarshal(payload, fresh()); err != nil {
			t.Fatal(err)
		}
	})
	return encode, decode
}
