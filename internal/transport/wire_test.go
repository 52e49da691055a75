package transport

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/ares-storage/ares/internal/obs"
)

// sampleEnvelopes is a representative mix of quorum-phase traffic: small
// metadata queries, a mid-size put-data, an empty-payload ack request.
func sampleEnvelopes() []tcpEnvelope {
	payload := bytes.Repeat([]byte{0xAB}, 512)
	return []tcpEnvelope{
		{ID: 1, From: "c1", Req: Request{Service: "abd", Key: "obj-1", Config: "store/obj-1/c0", Type: "query-tag", Payload: []byte{1, 2, 3}}},
		{ID: 2, From: "c1", Req: Request{Service: "treas", Key: "obj-2", Config: "store/obj-2/c0", Type: "put-data", Payload: payload}},
		{ID: 3, From: "recon-9", Req: Request{Service: "recon", Key: "obj-1", Config: "store/obj-1/c4", Type: "read-config"}},
	}
}

func sampleReplies() []tcpReply {
	return []tcpReply{
		{ID: 1, Resp: Response{OK: true, Payload: []byte{9, 8, 7}}},
		{ID: 2, Resp: Response{OK: true}},
		{ID: 3, Resp: Response{OK: false, Err: "cfg: configuration retired"}},
	}
}

// encodeFrames writes each envelope as its own plain frame (a batch of one)
// and flushes.
func encodeFrames[T wireEnvelope](t testing.TB, enc *frameEncoder, vs []T) {
	t.Helper()
	for _, v := range vs {
		if err := encodeBatch(enc, []T{v}); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.flush(); err != nil {
		t.Fatal(err)
	}
}

// TestWireRoundTrip pins that the codec decodes exactly what it encoded, in
// both frame directions.
func TestWireRoundTrip(t *testing.T) {
	t.Parallel()
	t.Run("binary", func(t *testing.T) {
		t.Parallel()
		var buf bytes.Buffer
		enc := newFrameEncoder(&buf)
		encodeFrames(t, enc, sampleEnvelopes())
		encodeFrames(t, enc, sampleReplies())

		dec := newFrameDecoder(&buf)
		for _, want := range sampleEnvelopes() {
			var got tcpEnvelope
			if err := dec.decodeRequest(&got); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("request round trip:\n got %+v\nwant %+v", got, want)
			}
		}
		for _, want := range sampleReplies() {
			var got tcpReply
			if err := dec.decodeReply(&got); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("reply round trip:\n got %+v\nwant %+v", got, want)
			}
		}
	})
}

// TestWireSizeIsExact pins bodySize and wireSize against the bytes the codec
// really emits: the batch encoder writes bodySize as the inner length
// prefix, and the frame-limit checks trust wireSize.
func TestWireSizeIsExact(t *testing.T) {
	t.Parallel()
	envs := append(sampleEnvelopes(), tcpEnvelope{ID: 1 << 40, From: "c", Req: Request{Payload: make([]byte, 300)}})
	for _, env := range envs {
		body := env.appendBody(nil)
		if env.bodySize() != len(body) || wireSize(env) != len(appendWireBytes(nil, body)) {
			t.Fatalf("request %d: bodySize %d, wireSize %d; encoded body is %d bytes", env.ID, env.bodySize(), wireSize(env), len(body))
		}
	}
	for _, rep := range append(sampleReplies(), tcpReply{ID: 1 << 20, Resp: Response{Payload: make([]byte, 200)}}) {
		body := rep.appendBody(nil)
		if rep.bodySize() != len(body) || wireSize(rep) != len(appendWireBytes(nil, body)) {
			t.Fatalf("reply %d: bodySize %d, wireSize %d; encoded body is %d bytes", rep.ID, rep.bodySize(), wireSize(rep), len(body))
		}
	}
}

// counterDeltas runs fn and returns how far it moved each registry counter,
// by name. Callers must not run in parallel: the counters are process-wide.
func counterDeltas(fn func()) map[string]int64 {
	before := obs.Default.Snapshot()
	fn()
	return obs.CounterDelta(before, obs.Default.Snapshot())
}

// TestWireCountsIntoCodecStats pins that frame traffic lands in the wire
// counters (the bench divides these by ops for bytes/op).
func TestWireCountsIntoCodecStats(t *testing.T) {
	// Not parallel: codec counters are process-wide.
	var wrote int
	d := counterDeltas(func() {
		var buf bytes.Buffer
		encodeFrames(t, newFrameEncoder(&buf), sampleEnvelopes())
		wrote = buf.Len()
		dec := newFrameDecoder(&buf)
		for range sampleEnvelopes() {
			var env tcpEnvelope
			if err := dec.decodeRequest(&env); err != nil {
				t.Fatal(err)
			}
		}
	})
	n := int64(len(sampleEnvelopes()))
	if got := d["ares_wire_encodes_total"]; got != n {
		t.Fatalf("ares_wire_encodes_total delta = %d, want %d", got, n)
	}
	if got := d["ares_wire_encoded_bytes_total"]; got != int64(wrote) {
		t.Fatalf("ares_wire_encoded_bytes_total delta = %d, want %d", got, wrote)
	}
	if got := d["ares_wire_decodes_total"]; got != n {
		t.Fatalf("ares_wire_decodes_total delta = %d, want %d", got, n)
	}
	if d["ares_wire_decoded_bytes_total"] <= 0 {
		t.Fatal("ares_wire_decoded_bytes_total did not advance")
	}
}

// TestWireRejectsOversizedFrame pins the length-prefix guard: a corrupt or
// hostile frame length fails the decode instead of allocating gigabytes.
func TestWireRejectsOversizedFrame(t *testing.T) {
	t.Parallel()
	buf := []byte{0xFF, 0xFF, 0xFF, 0xFF} // ~4 GiB frame
	dec := newFrameDecoder(bytes.NewReader(buf))
	var env tcpEnvelope
	if err := dec.decodeRequest(&env); err == nil {
		t.Fatal("oversized frame length was accepted")
	}
}

// TestWireRejectsTruncatedFrame pins that a body shorter than its fields
// claim surfaces as an error, not a misparse.
func TestWireRejectsTruncatedFrame(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	encodeFrames(t, newFrameEncoder(&buf), sampleEnvelopes()[:1])
	full := buf.Bytes()
	// Keep the 4-byte length prefix intact but drop the tail of the body.
	cut := append([]byte(nil), full[:len(full)-3]...)
	dec := newFrameDecoder(bytes.NewReader(cut))
	var env tcpEnvelope
	if err := dec.decodeRequest(&env); err == nil {
		t.Fatal("truncated frame was accepted")
	}
}

// TestWireKindMismatch pins the direction check: a reply frame read where a
// request is expected (cross-wired peer) errors out.
func TestWireKindMismatch(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	encodeFrames(t, newFrameEncoder(&buf), sampleReplies()[:1])
	dec := newFrameDecoder(&buf)
	var env tcpEnvelope
	if err := dec.decodeRequest(&env); err == nil {
		t.Fatal("reply frame decoded as request")
	}
}
