package transport

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"
)

// wireSeeds are the FuzzWireDecode seeds (also checked in under
// testdata/fuzz): every sample envelope and reply as a plain frame, each set
// as one FrameBatch, and framing junk.
func wireSeeds(t testing.TB) [][]byte {
	frames := func(encode func(*frameEncoder)) []byte {
		var buf bytes.Buffer
		enc := newFrameEncoder(&buf)
		encode(enc)
		if err := enc.flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var seeds [][]byte
	for _, env := range sampleEnvelopes() {
		seeds = append(seeds, frames(func(e *frameEncoder) { encodeFrames(t, e, []tcpEnvelope{env}) }))
	}
	for _, rep := range sampleReplies() {
		seeds = append(seeds, frames(func(e *frameEncoder) { encodeFrames(t, e, []tcpReply{rep}) }))
	}
	seeds = append(seeds,
		frames(func(e *frameEncoder) { _ = encodeBatch(e, sampleEnvelopes()) }),
		frames(func(e *frameEncoder) { _ = encodeBatch(e, sampleReplies()) }),
		[]byte{},
		[]byte{0xFF, 0xFF, 0xFF, 0xFF},
		rawFrame(binary.AppendUvarint([]byte{frameBatch}, 0)),
	)
	return seeds
}

// FuzzWireDecode drives the frame decoder — the data plane's one
// network-facing parser — over arbitrary bytes, read as requests and as
// replies, batches included. It must never panic, never allocate more than
// the frame limit beyond what the input itself accounts for, and every
// envelope it accepts must re-encode and decode to an equal envelope.
// Byte-identity with the input is not asserted: the envelopes of a batch
// frame re-encode as plain frames.
func FuzzWireDecode(f *testing.F) {
	for _, seed := range wireSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data, (*frameDecoder).decodeRequest)
		checkDecode(t, data, (*frameDecoder).decodeReply)
	})
}

func checkDecode[T wireEnvelope](t *testing.T, data []byte, decode func(*frameDecoder, *T) error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var decoded []T
	dec := newFrameDecoder(bytes.NewReader(data))
	for {
		var v T
		if decode(dec, &v) != nil {
			break
		}
		decoded = append(decoded, v)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > maxWireFrame+512*uint64(len(data))+1<<20 {
		t.Fatalf("decoding %d bytes allocated %d bytes", len(data), grew)
	}

	for _, v := range decoded {
		var buf bytes.Buffer
		encodeFrames(t, newFrameEncoder(&buf), []T{v})
		var again T
		if err := decode(newFrameDecoder(&buf), &again); err != nil {
			t.Fatalf("re-decoding %+v: %v", v, err)
		}
		if !reflect.DeepEqual(again, v) {
			t.Fatalf("round trip changed the envelope:\n got %+v\nwant %+v", again, v)
		}
	}
}
