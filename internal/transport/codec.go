package transport

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"

	"github.com/ares-storage/ares/internal/obs"
)

// The codec layer is the hot path of every quorum phase: each request and
// response body passes through Marshal/Unmarshal. A body takes one of three
// paths:
//
//   - a binary body (BodyEncoder / BodyDecoder, see body.go) is encoded into
//     one allocation of exactly BodySize bytes and decoded without
//     reflection. Every body a steady Get or Put sends is one;
//   - struct{}{}, the body of a request that carries nothing, encodes to
//     zero bytes, and only an empty payload decodes into *struct{};
//   - any other body falls back to gob. A gob encoder is stream-stateful
//     (it emits each type's wire description once per stream) while payloads
//     must stay independently decodable, so each fallback encode runs a fresh
//     encoder over a pooled buffer and re-sends the type dictionary. Only
//     bodies off the steady path take it: Paxos, write-config, install, the
//     §5 transfer and the recon/consensus/core snapshots. (Repair sends
//     only query-list and put-data, so it is binary too.)
//
// Every encode and decode is counted (operations and payload bytes) on all
// three paths, which is what lets tests pin the Broadcast marshal-once
// invariant and benchmarks attribute wire bytes. Gob encodes and decodes
// also count into ares_codec_gob_fallbacks_total, which reads zero over a
// steady workload.

// maxPooledBuffer bounds the capacity of buffers returned to the pool, so a
// single huge value does not pin a huge buffer for the process lifetime.
const maxPooledBuffer = 1 << 20

var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// batchBucketCount is the number of envelopes-per-frame buckets.
const batchBucketCount = 6

// BatchBucketLabels names the envelopes-per-frame buckets: the envelopes
// label of ares_wire_envelopes_per_frame_total.
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

// codecCounters holds the transport's named instruments: obs registry
// handles resolved once at init, so every hot-path bump is one atomic add.
// Readers go through the registry (obs.Default.Snapshot, /metrics).
type codecCounters struct {
	encodes      *obs.Counter
	decodes      *obs.Counter
	encodedBytes *obs.Counter
	decodedBytes *obs.Counter
	gobFallbacks *obs.Counter

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
		gobFallbacks:     r.Counter("ares_codec_gob_fallbacks_total", "Marshal and Unmarshal operations on bodies without a binary encoding"),
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

// Marshal encodes a message body for use as a Request or Response payload.
// Bodies are concrete structs owned by each protocol package.
func Marshal(v any) ([]byte, error) {
	var out []byte
	switch b := v.(type) {
	case BodyEncoder:
		size := b.BodySize()
		out = b.AppendBody(make([]byte, 0, size))
		if len(out) != size {
			return nil, fmt.Errorf("transport: encoding %T: BodySize %d, AppendBody wrote %d", v, size, len(out))
		}
	case struct{}:
	default:
		var err error
		if out, err = gobMarshal(v); err != nil {
			return nil, err
		}
	}
	codecStats.encodes.Add(1)
	codecStats.encodedBytes.Add(int64(len(out)))
	return out, nil
}

func gobMarshal(v any) ([]byte, error) {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer func() {
		if buf.Cap() <= maxPooledBuffer {
			bufPool.Put(buf)
		}
	}()
	if err := gob.NewEncoder(buf).Encode(v); err != nil {
		return nil, fmt.Errorf("transport: encoding %T: %w", v, err)
	}
	codecStats.gobFallbacks.Add(1)
	return append([]byte(nil), buf.Bytes()...), nil
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

// Unmarshal decodes a payload produced by Marshal into v. A binary body's
// byte fields may alias data.
func Unmarshal(data []byte, v any) error {
	var err error
	switch b := v.(type) {
	case BodyDecoder:
		err = b.DecodeBody(data)
	case *struct{}:
		if len(data) != 0 {
			err = fmt.Errorf("%w: %d bytes for an empty body", errMalformed, len(data))
		}
	default:
		codecStats.gobFallbacks.Add(1)
		err = gob.NewDecoder(bytes.NewReader(data)).Decode(v)
	}
	if err != nil {
		return fmt.Errorf("transport: decoding %T: %w", v, err)
	}
	codecStats.decodes.Add(1)
	codecStats.decodedBytes.Add(int64(len(data)))
	return nil
}
