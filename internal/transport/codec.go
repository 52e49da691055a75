package transport

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"

	"github.com/ares-storage/ares/internal/obs"
)

// The codec layer is the hot path of every quorum phase: each request and
// response body passes through Marshal/Unmarshal. Two mechanisms keep it
// cheap and observable:
//
//   - encode buffers are pooled, so the amortized cost of a Marshal is one
//     exact-size allocation for the returned payload instead of repeated
//     buffer growth;
//   - every encode/decode is counted (operations and payload bytes), which
//     is what lets tests pin the Broadcast marshal-once invariant and
//     benchmarks attribute wire-byte savings.
//
// Gob encoders themselves cannot be pooled: an encoder is stream-stateful
// (it emits each type's wire description once per stream), while payloads
// must stay independently decodable. Fresh encoder, pooled buffer.

// maxPooledBuffer bounds the capacity of buffers returned to the pool, so a
// single huge value does not pin a huge buffer for the process lifetime.
const maxPooledBuffer = 1 << 20

var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// CodecUsage is a point-in-time snapshot of codec work since the last reset.
type CodecUsage struct {
	// Encodes and Decodes count Marshal/Unmarshal operations.
	Encodes int64
	Decodes int64
	// EncodedBytes and DecodedBytes total the payload sizes processed.
	EncodedBytes int64
	DecodedBytes int64
	// WireEncodes and WireDecodes count TCP frames written/read, and
	// WireEncodedBytes/WireDecodedBytes the socket bytes they moved —
	// whole envelopes including framing, not just bodies.
	WireEncodes      int64
	WireDecodes      int64
	WireEncodedBytes int64
	WireDecodedBytes int64
	// FramesBatched counts encoded frames that coalesced more than one
	// envelope (FrameBatch frames); EnvelopesPerFrame is a histogram of
	// envelope count per encoded data frame, bucketed per
	// BatchBucketLabels. Together they show how often the writer path
	// found cross-key traffic to pack.
	FramesBatched     int64
	EnvelopesPerFrame [batchBucketCount]int64
}

// batchBucketCount is the number of EnvelopesPerFrame histogram buckets.
const batchBucketCount = 6

// BatchBucketLabels names the EnvelopesPerFrame buckets, index-aligned with
// CodecUsage.EnvelopesPerFrame.
var BatchBucketLabels = [batchBucketCount]string{"1", "2", "3-4", "5-8", "9-16", "17+"}

func batchBucket(n int) int {
	switch {
	case n <= 1:
		return 0
	case n == 2:
		return 1
	case n <= 4:
		return 2
	case n <= 8:
		return 3
	case n <= 16:
		return 4
	default:
		return 5
	}
}

// recordFrameEnvelopes attributes one encoded data frame carrying n
// envelopes to the batch counters.
func recordFrameEnvelopes(n int) {
	codecStats.envelopesPerFrame[batchBucket(n)].Add(1)
	if n > 1 {
		codecStats.framesBatched.Add(1)
	}
}

// codecCounters holds the transport's named instruments. The fields are
// obs registry handles (resolved once at init), so every hot-path bump
// is the same single atomic add the old hand-rolled struct did; the
// CodecUsage type below is now a thin view over the registry.
type codecCounters struct {
	encodes      *obs.Counter
	decodes      *obs.Counter
	encodedBytes *obs.Counter
	decodedBytes *obs.Counter

	wireEncodes      *obs.Counter
	wireDecodes      *obs.Counter
	wireEncodedBytes *obs.Counter
	wireDecodedBytes *obs.Counter

	framesBatched     *obs.Counter
	envelopesPerFrame [batchBucketCount]*obs.Counter
}

var codecStats = func() codecCounters {
	r := obs.Default
	c := codecCounters{
		encodes:          r.Counter("ares_codec_encodes_total", "Marshal operations (message bodies encoded)"),
		decodes:          r.Counter("ares_codec_decodes_total", "Unmarshal operations (message bodies decoded)"),
		encodedBytes:     r.Counter("ares_codec_encoded_bytes_total", "Payload bytes produced by Marshal"),
		decodedBytes:     r.Counter("ares_codec_decoded_bytes_total", "Payload bytes consumed by Unmarshal"),
		wireEncodes:      r.Counter("ares_wire_encodes_total", "TCP frames written"),
		wireDecodes:      r.Counter("ares_wire_decodes_total", "TCP frames read"),
		wireEncodedBytes: r.Counter("ares_wire_encoded_bytes_total", "Socket bytes written, framing included"),
		wireDecodedBytes: r.Counter("ares_wire_decoded_bytes_total", "Socket bytes read, framing included"),
		framesBatched:    r.Counter("ares_wire_frames_batched_total", "Data frames that coalesced more than one envelope"),
	}
	for i, label := range BatchBucketLabels {
		c.envelopesPerFrame[i] = r.Counter(
			`ares_wire_envelopes_per_frame_total{envelopes="`+label+`"}`,
			"Encoded data frames by envelope count")
	}
	return c
}()

// CodecStats reports codec work performed process-wide since the last
// ResetCodecStats. The Broadcast marshal-once tests and the bench harness
// read it to verify that one quorum phase costs one body encode.
func CodecStats() CodecUsage {
	u := CodecUsage{
		Encodes:          codecStats.encodes.Load(),
		Decodes:          codecStats.decodes.Load(),
		EncodedBytes:     codecStats.encodedBytes.Load(),
		DecodedBytes:     codecStats.decodedBytes.Load(),
		WireEncodes:      codecStats.wireEncodes.Load(),
		WireDecodes:      codecStats.wireDecodes.Load(),
		WireEncodedBytes: codecStats.wireEncodedBytes.Load(),
		WireDecodedBytes: codecStats.wireDecodedBytes.Load(),
		FramesBatched:    codecStats.framesBatched.Load(),
	}
	for i := range codecStats.envelopesPerFrame {
		u.EnvelopesPerFrame[i] = codecStats.envelopesPerFrame[i].Load()
	}
	return u
}

// ResetCodecStats zeroes the codec counters.
func ResetCodecStats() {
	codecStats.encodes.Reset()
	codecStats.decodes.Reset()
	codecStats.encodedBytes.Reset()
	codecStats.decodedBytes.Reset()
	codecStats.wireEncodes.Reset()
	codecStats.wireDecodes.Reset()
	codecStats.wireEncodedBytes.Reset()
	codecStats.wireDecodedBytes.Reset()
	codecStats.framesBatched.Reset()
	for i := range codecStats.envelopesPerFrame {
		codecStats.envelopesPerFrame[i].Reset()
	}
}

// Marshal gob-encodes a message body for use as a Request or Response
// payload. Bodies are concrete structs owned by each protocol package.
func Marshal(v any) ([]byte, error) {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := gob.NewEncoder(buf).Encode(v); err != nil {
		if buf.Cap() <= maxPooledBuffer {
			bufPool.Put(buf)
		}
		return nil, fmt.Errorf("transport: encoding %T: %w", v, err)
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	if buf.Cap() <= maxPooledBuffer {
		bufPool.Put(buf)
	}
	codecStats.encodes.Add(1)
	codecStats.encodedBytes.Add(int64(len(out)))
	return out, nil
}

// MustMarshal is Marshal for bodies that cannot fail to encode (plain
// structs of basic types). It panics on error, which indicates a programming
// bug, never bad input.
func MustMarshal(v any) []byte {
	b, err := Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// Unmarshal decodes a payload produced by Marshal into v.
func Unmarshal(data []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(v); err != nil {
		return fmt.Errorf("transport: decoding %T: %w", v, err)
	}
	codecStats.decodes.Add(1)
	codecStats.decodedBytes.Add(int64(len(data)))
	return nil
}
