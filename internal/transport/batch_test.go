package transport

// Tests for the FrameBatch coalescing layer: batch framing round trips,
// malformed-batch rejection, the writer path's envelope/byte caps and frame
// limit, oversized envelopes failing alone, the saturated-send-queue Invoke
// contract, and the batch counters in the obs registry.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ares-storage/ares/internal/types"
)

// TestWireBatchRoundTrip pins that batched encodes decode into exactly the
// single-frame envelope stream: the decoder is transparent, so read loops
// never learn whether the peer batched.
func TestWireBatchRoundTrip(t *testing.T) {
	t.Parallel()
	t.Run("binary", func(t *testing.T) {
		t.Parallel()
		var buf bytes.Buffer
		enc := newFrameEncoder(&buf)
		if err := encodeBatch(enc, sampleEnvelopes()); err != nil {
			t.Fatal(err)
		}
		if err := encodeBatch(enc, sampleReplies()); err != nil {
			t.Fatal(err)
		}
		if err := enc.flush(); err != nil {
			t.Fatal(err)
		}

		dec := newFrameDecoder(&buf)
		for _, want := range sampleEnvelopes() {
			var got tcpEnvelope
			if err := dec.decodeRequest(&got); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("batched request round trip:\n got %+v\nwant %+v", got, want)
			}
		}
		for _, want := range sampleReplies() {
			var got tcpReply
			if err := dec.decodeReply(&got); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("batched reply round trip:\n got %+v\nwant %+v", got, want)
			}
		}
	})
}

// TestWireBatchOfOneIsPlainFrame pins the degenerate case: a batch of one
// emits exactly the length-prefixed request body, so a lone envelope never
// pays batch framing overhead.
func TestWireBatchOfOneIsPlainFrame(t *testing.T) {
	t.Parallel()
	env := sampleEnvelopes()[0]
	var batched bytes.Buffer
	encodeFrames(t, newFrameEncoder(&batched), []tcpEnvelope{env})
	if plain := rawFrame(env.appendBody(nil)); !bytes.Equal(plain, batched.Bytes()) {
		t.Fatalf("batch of one is not the plain frame:\n  plain %x\nbatched %x", plain, batched.Bytes())
	}
}

// rawFrame length-prefixes a hand-built body the way writeFrame would.
func rawFrame(body []byte) []byte {
	var prefix [4]byte
	binary.BigEndian.PutUint32(prefix[:], uint32(len(body)))
	return append(prefix[:], body...)
}

// TestWireRejectsMalformedBatchFrames pins that corrupt batch frames fail the
// decode loudly instead of misparsing or over-allocating.
func TestWireRejectsMalformedBatchFrames(t *testing.T) {
	t.Parallel()
	valid := sampleEnvelopes()[0].appendBody(nil)
	cases := map[string][]byte{
		"zero envelopes": binary.AppendUvarint([]byte{frameBatch}, 0),
		"count exceeds frame bytes": append(
			binary.AppendUvarint([]byte{frameBatch}, 1<<20), 1, 2, 3),
		"trailing bytes": append(
			AppendBytes(binary.AppendUvarint([]byte{frameBatch}, 1), valid), 0xEE),
		"truncated inner body": AppendBytes(
			binary.AppendUvarint([]byte{frameBatch}, 2), valid),
	}
	for name, body := range cases {
		name, body := name, body
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			dec := newFrameDecoder(bytes.NewReader(rawFrame(body)))
			var env tcpEnvelope
			if err := dec.decodeRequest(&env); err == nil {
				t.Fatalf("malformed batch frame (%s) was accepted", name)
			}
		})
	}
}

// TestWireBatchCountsIntoCodecStats pins the batch observability the bench
// reads: one batched frame advances ares_wire_frames_batched_total and the
// right envelopes-per-frame bucket, and costs one wire frame, not N.
func TestWireBatchCountsIntoCodecStats(t *testing.T) {
	// Not parallel: codec counters are process-wide.
	envs := sampleEnvelopes()
	d := counterDeltas(func() {
		var buf bytes.Buffer
		enc := newFrameEncoder(&buf)
		if err := encodeBatch(enc, envs); err != nil {
			t.Fatal(err)
		}
		if err := enc.flush(); err != nil {
			t.Fatal(err)
		}
		dec := newFrameDecoder(&buf)
		for range envs {
			var env tcpEnvelope
			if err := dec.decodeRequest(&env); err != nil {
				t.Fatal(err)
			}
		}
	})
	bucket := `ares_wire_envelopes_per_frame_total{envelopes="` + BatchBucketLabels[batchBucket(len(envs))] + `"}`
	for name, want := range map[string]int64{
		"ares_wire_frames_batched_total": 1,
		bucket:                           1,
		"ares_wire_encodes_total":        1, // the whole batch is one frame
		"ares_wire_decodes_total":        1,
	} {
		if got := d[name]; got != want {
			t.Fatalf("%s delta = %d, want %d", name, got, want)
		}
	}
}

// TestBatchCaps pins the cap resolution: the defaults, WithBatchLimits, and
// that invalid limits are ignored rather than applied.
func TestBatchCaps(t *testing.T) {
	t.Parallel()
	o := defaultTCPOptions()
	if o.batchEnvelopes != defaultBatchEnvelopes || o.batchBytes != defaultBatchBytes {
		t.Fatalf("default caps = (%d, %d), want (%d, %d)", o.batchEnvelopes, o.batchBytes, defaultBatchEnvelopes, defaultBatchBytes)
	}
	WithBatchLimits(3, 4096)(&o)
	if o.batchEnvelopes != 3 || o.batchBytes != 4096 {
		t.Fatalf("caps after WithBatchLimits(3, 4096) = (%d, %d)", o.batchEnvelopes, o.batchBytes)
	}
	WithBatchLimits(0, -1)(&o) // invalid values are ignored, not applied
	if o.batchEnvelopes != 3 || o.batchBytes != 4096 {
		t.Fatalf("caps after invalid WithBatchLimits = (%d, %d), want (3, 4096)", o.batchEnvelopes, o.batchBytes)
	}
}

// pipeBook dials net.Pipe client halves and hands the server halves to the
// test, which plays the peer directly on the raw stream.
func pipeBook(serverSide chan<- net.Conn) TCPOption {
	return WithDialFunc(func(ctx context.Context, addr string) (net.Conn, error) {
		cs, ss := net.Pipe()
		serverSide <- ss
		return cs, nil
	})
}

// TestTCPWriterSplitsBatchesAcrossCaps drives a burst of concurrent Invokes
// into a writer with tight batch caps and inspects the raw frames: every
// frame respects the cap, at least one FrameBatch appears, and every Invoke
// still resolves. Covers both the envelope-count cap and the byte cap.
func TestTCPWriterSplitsBatchesAcrossCaps(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name    string
		limits  TCPOption
		payload int
	}{
		// Cap 2 envelopes: five requests must split into ≥2 batch frames.
		{name: "count-cap", limits: WithBatchLimits(2, 1<<20)},
		// ~1 KiB payloads against a 1500 B cap: the byte cap closes each
		// batch at two envelopes even though the count cap allows 64.
		{name: "byte-cap", limits: WithBatchLimits(64, 1500), payload: 1000},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			serverSide := make(chan net.Conn, 1)
			client := NewTCPClient("c1", StaticBook(map[types.ProcessID]string{"s1": "pipe"}),
				tc.limits, pipeBook(serverSide))
			defer client.Close()

			const total = 5
			results := make(chan error, total)
			invoke := func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				resp, err := client.Invoke(ctx, "s1", Request{
					Service: "svc", Type: "op", Payload: bytes.Repeat([]byte{0x5A}, tc.payload),
				})
				if err == nil && !resp.OK {
					err = fmt.Errorf("response not OK: %+v", resp)
				}
				results <- err
			}
			// The first request dials alone: concurrent first Invokes would
			// each dial, and the test could pick up a losing dial's pipe.
			go invoke()
			ss := <-serverSide
			defer ss.Close()
			time.Sleep(50 * time.Millisecond)
			// Let the other four enqueue while the writer is wedged flushing
			// the first frame into the unread pipe, so the drain pass finds
			// cross-request traffic to pack.
			for i := 1; i < total; i++ {
				go invoke()
			}
			time.Sleep(100 * time.Millisecond)

			// Play the server on the raw stream: tee the bytes for structural
			// assertions while a real decoder yields envelopes to answer.
			var raw bytes.Buffer
			dec := newFrameDecoder(io.TeeReader(ss, &raw))
			enc := newFrameEncoder(ss)
			for seen := 0; seen < total; seen++ {
				var env tcpEnvelope
				if err := dec.decodeRequest(&env); err != nil {
					t.Fatalf("decoding request %d: %v", seen, err)
				}
				encodeFrames(t, enc, []tcpReply{{ID: env.ID, Resp: OKResponse(nil)}})
			}
			for i := 0; i < total; i++ {
				if err := <-results; err != nil {
					t.Fatalf("invoke %d: %v", i, err)
				}
			}

			frames, batches, envelopes := 0, 0, 0
			for _, f := range captureFrames(t, &raw) {
				frames++
				if f.envelopes > 1 {
					batches++
				}
				if f.envelopes > 2 {
					t.Fatalf("batch frame carries %d envelopes, cap is 2", f.envelopes)
				}
				envelopes += f.envelopes
			}
			if envelopes != total {
				t.Fatalf("stream carried %d envelopes, want %d", envelopes, total)
			}
			if batches == 0 {
				t.Fatalf("no FrameBatch in %d frames: the writer never coalesced", frames)
			}
		})
	}
}

// capturedFrame is one frame of a captured stream: its body length and how
// many envelopes it carries.
type capturedFrame struct{ bytes, envelopes int }

// captureFrames walks a captured stream frame by frame.
func captureFrames(t *testing.T, raw *bytes.Buffer) []capturedFrame {
	t.Helper()
	var frames []capturedFrame
	for raw.Len() > 0 {
		var prefix [4]byte
		if _, err := io.ReadFull(raw, prefix[:]); err != nil {
			t.Fatal(err)
		}
		body := make([]byte, binary.BigEndian.Uint32(prefix[:]))
		if _, err := io.ReadFull(raw, body); err != nil {
			t.Fatal(err)
		}
		f := capturedFrame{bytes: len(body), envelopes: 1}
		if len(body) > 0 && body[0] == frameBatch {
			c := NewCursor(body[1:])
			f.envelopes = int(c.Uvarint())
			if c.Err() != nil {
				t.Fatal(c.Err())
			}
		}
		frames = append(frames, f)
	}
	return frames
}

// TestWriterClosesBatchBeforeFrameLimit pins the writer's frame-limit rule:
// with the count and byte caps out of the way, a batch closes before the
// envelope that would push it past the frame limit. No frame exceeds the
// limit, the writer still coalesces, and every envelope arrives.
func TestWriterClosesBatchBeforeFrameLimit(t *testing.T) {
	t.Parallel()
	const total, limit = 5, 2500 // ~1 KiB envelopes: two fit a frame, three do not
	queue := make(chan tcpEnvelope, total)
	for i := 1; i <= total; i++ {
		queue <- tcpEnvelope{ID: uint64(i), From: "c1", Req: Request{Service: "svc", Payload: make([]byte, 1000)}}
	}
	pr, pw := io.Pipe()
	done := make(chan struct{})
	stopped := make(chan error, 1)
	go func() { stopped <- writeBatches(newFrameEncoder(pw), queue, done, 64, 1<<30, limit) }()

	var raw bytes.Buffer
	dec := newFrameDecoder(io.TeeReader(pr, &raw))
	for i := 1; i <= total; i++ {
		var env tcpEnvelope
		if err := dec.decodeRequest(&env); err != nil {
			t.Fatalf("decoding envelope %d: %v", i, err)
		}
		if env.ID != uint64(i) {
			t.Fatalf("envelope %d arrived as ID %d", i, env.ID)
		}
	}
	close(done)
	if err := <-stopped; err != nil {
		t.Fatal(err)
	}

	batches, envelopes := 0, 0
	for _, f := range captureFrames(t, &raw) {
		if f.bytes > limit {
			t.Fatalf("writer emitted a %d-byte frame past the %d-byte limit", f.bytes, limit)
		}
		if f.envelopes > 1 {
			batches++
		}
		envelopes += f.envelopes
	}
	if envelopes != total || batches == 0 {
		t.Fatalf("stream carried %d envelopes in %d batch frames, want %d envelopes, some batched", envelopes, batches, total)
	}
}

// TestTCPOversizedEnvelopeFailsAlone pins the frame-limit contract end to
// end: a request and a reply too large for one wire frame each fail their
// own Invoke with ErrFrameTooLarge, while a concurrent Invoke on the same
// connection, held in a slow handler meanwhile, still succeeds — and the
// client never had to re-dial.
func TestTCPOversizedEnvelopeFailsAlone(t *testing.T) {
	// Not parallel: it holds a 64 MiB payload.
	big := make([]byte, maxWireFrame+1)
	entered, release := make(chan struct{}), make(chan struct{})
	srv, err := NewTCPServer("s1", "127.0.0.1:0", HandlerFunc(func(_ types.ProcessID, req Request) Response {
		switch req.Type {
		case "slow":
			close(entered)
			<-release
			return OKResponse([]byte("slow"))
		case "big-reply":
			return OKResponse(big)
		}
		return OKResponse(nil)
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var dials atomic.Int64
	client := NewTCPClient("c1", StaticBook(map[types.ProcessID]string{"s1": srv.Addr()}),
		WithDialFunc(func(ctx context.Context, addr string) (net.Conn, error) {
			dials.Add(1)
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		}))
	defer client.Close()
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock() // runs before srv.Close, which waits for the handler
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	slow := make(chan error, 1)
	go func() {
		resp, err := client.Invoke(ctx, "s1", Request{Service: "svc", Type: "slow"})
		if err == nil && string(resp.Payload) != "slow" {
			err = fmt.Errorf("slow invoke answered %+v", resp)
		}
		slow <- err
	}()
	select {
	case <-entered:
	case <-ctx.Done():
		t.Fatal("slow request never reached its handler")
	}

	if _, err := client.Invoke(ctx, "s1", Request{Service: "svc", Type: "big-request", Payload: big}); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized request: %v, want ErrFrameTooLarge", err)
	}
	if _, err := client.Invoke(ctx, "s1", Request{Service: "svc", Type: "big-reply"}); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized reply: %v, want ErrFrameTooLarge", err)
	}
	unblock()
	if err := <-slow; err != nil {
		t.Fatalf("concurrent invoke on the same connection: %v", err)
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("client dialed %d times, want 1: an oversized envelope tore the connection down", n)
	}
}

// TestTCPInvokeSaturatedQueueHonorsContext pins the backpressure contract: an
// Invoke that finds the per-connection send queue full waits for its context
// deadline instead of failing fast — a saturated writer is congestion, not a
// dead peer, so the caller must not see ErrUnreachable.
func TestTCPInvokeSaturatedQueueHonorsContext(t *testing.T) {
	t.Parallel()
	serverSide := make(chan net.Conn, 1)
	client := NewTCPClient("c1", StaticBook(map[types.ProcessID]string{"s1": "pipe"}),
		WithSendQueue(1), pipeBook(serverSide))
	defer client.Close()

	background := make(chan error, 2)
	invoke := func() {
		_, err := client.Invoke(context.Background(), "s1", Request{Service: "svc", Type: "op"})
		background <- err
	}
	// First request: the writer drains it and wedges flushing into the
	// never-read pipe.
	go invoke()
	ss := <-serverSide
	defer ss.Close()
	time.Sleep(50 * time.Millisecond)
	// Second request fills the 1-deep queue.
	go invoke()
	time.Sleep(50 * time.Millisecond)

	// Third request meets the saturated queue.
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := client.Invoke(ctx, "s1", Request{Service: "svc", Type: "op"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Invoke under saturated queue = %v, want context.DeadlineExceeded", err)
	}
	if errors.Is(err, ErrUnreachable) {
		t.Fatalf("saturated queue misreported as unreachable: %v", err)
	}
	if waited := time.Since(start); waited < 100*time.Millisecond {
		t.Fatalf("Invoke gave up after %v: failed fast instead of waiting out its deadline", waited)
	}

	// Tear down; the two wedged invokes must resolve (with connection-lost
	// errors), not leak.
	client.Close()
	for i := 0; i < 2; i++ {
		select {
		case <-background:
		case <-time.After(2 * time.Second):
			t.Fatal("wedged invoke did not resolve after Close")
		}
	}
}

// BenchmarkTCPInvokeConcurrent measures raw concurrent Invoke throughput over
// one real loopback connection — the writer path's coalescing under 32
// concurrent callers, with no storage stack on top.
func BenchmarkTCPInvokeConcurrent(b *testing.B) {
	srv, err := NewTCPServer("s1", "127.0.0.1:0", echoHandler(nil))
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client := NewTCPClient("c1", StaticBook(map[types.ProcessID]string{"s1": srv.Addr()}))
	defer client.Close()
	payload := bytes.Repeat([]byte("x"), 256)
	req := Request{Service: "bench", Type: "echo", Payload: payload}
	b.SetParallelism(32)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := client.Invoke(context.Background(), "s1", req); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
