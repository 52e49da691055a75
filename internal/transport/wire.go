package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"github.com/ares-storage/ares/internal/types"
)

// The TCP wire layer frames request/reply envelopes onto a byte stream. Every
// frame is a 4-byte big-endian length followed by a hand-rolled body — a kind
// byte, a uvarint request ID, and uvarint-length-prefixed strings/bytes for
// the envelope fields — written and read with the same append helpers and
// strict Cursor as binary message bodies (body.go). Nothing else crosses the
// wire: no type dictionaries, no field names, no per-stream state. A frame
// costs its fields plus one varint per field plus 5 bytes of framing.
//
// Frames are counted into the obs registry (ares_wire_encodes_total,
// ares_wire_encoded_bytes_total, ...), which is how benchmarks attribute
// bytes-per-operation to the codec. The payload inside an envelope is the
// opaque product of transport.Marshal (a binary body on the steady path, gob
// off it), so the Broadcast marshal-once invariants (one body encode per
// quorum phase) are unaffected by the framing. The reader copies each
// payload out of its reused frame buffer, which is what lets body decoders
// alias their input.

// Frame kinds. The kind byte leads every frame body so a peer that
// cross-wires directions (or a corrupted stream) fails loudly instead of
// misparsing.
const (
	frameRequest byte = 0x01
	frameReply   byte = 0x02
	// frameBatch wraps several request or reply frames in one outer frame:
	// kind byte, uvarint envelope count, then count × (uvarint inner length,
	// inner frame body including its own kind byte). The writer goroutine
	// packs every envelope drained from a send queue in one pass into a
	// single batch, so a multi-key burst to one peer costs one length
	// prefix, one write, and one decode loop instead of one frame each.
	frameBatch byte = 0x03
)

// maxWireFrame bounds a frame body. The reader rejects a longer length
// prefix — a corrupt or hostile one must not make it allocate gigabytes —
// and drops the connection, so the writers never emit one: Invoke and the
// server refuse an envelope that cannot fit (ErrFrameTooLarge), and the
// writer closes a batch before an envelope would push it past the cap.
const maxWireFrame = 64 << 20

// batchHeaderMax bounds what a batch frame adds to its envelopes' wireSize:
// the kind byte and the uvarint envelope count.
const batchHeaderMax = 1 + binary.MaxVarintLen64

// ErrFrameTooLarge reports an envelope too large for one wire frame. It fails
// that one Invoke; the connection and every other request on it carry on.
var ErrFrameTooLarge = errors.New("transport: envelope exceeds the wire frame limit")

// fitsFrame reports whether envelopes whose wireSize sums to size fit one
// frame of at most limit bytes.
func fitsFrame(size, limit int) bool { return size+batchHeaderMax <= limit }

// wireEnvelope is what the shared writer and batch encoder need of the two
// frame kinds, tcpEnvelope and tcpReply.
type wireEnvelope interface {
	// bodySize is the exact length appendBody adds.
	bodySize() int
	// appendBody appends the frame body, kind byte first.
	appendBody(b []byte) []byte
}

// wireSize is an envelope's exact cost inside a batch frame: its body plus
// the body's length prefix. A lone envelope rides a plain frame, which is
// smaller still.
func wireSize[T wireEnvelope](v T) int { return BytesSize(v.bodySize()) }

func (env tcpEnvelope) bodySize() int {
	return 1 + UvarintSize(env.ID) + BytesSize(len(env.From)) +
		BytesSize(len(env.Req.Service)) + BytesSize(len(env.Req.Key)) +
		BytesSize(len(env.Req.Config)) + BytesSize(len(env.Req.Type)) +
		BytesSize(len(env.Req.Payload))
}

func (env tcpEnvelope) appendBody(b []byte) []byte {
	b = append(b, frameRequest)
	b = binary.AppendUvarint(b, env.ID)
	b = AppendString(b, string(env.From))
	b = AppendString(b, env.Req.Service)
	b = AppendString(b, env.Req.Key)
	b = AppendString(b, env.Req.Config)
	b = AppendString(b, env.Req.Type)
	b = AppendBytes(b, env.Req.Payload)
	return b
}

func (rep tcpReply) bodySize() int {
	return 2 + UvarintSize(rep.ID) + BytesSize(len(rep.Resp.Err)) +
		BytesSize(len(rep.Resp.Payload))
}

func (rep tcpReply) appendBody(b []byte) []byte {
	b = append(b, frameReply)
	b = binary.AppendUvarint(b, rep.ID)
	b = AppendBool(b, rep.Resp.OK)
	b = AppendString(b, rep.Resp.Err)
	b = AppendBytes(b, rep.Resp.Payload)
	return b
}

// countingWriter counts socket-bound bytes into the wire counters. It sits
// under the bufio layer, so it observes exactly the bytes each flush writes.
type countingWriter struct {
	w io.Writer
}

func (cw countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	codecStats.wireEncodedBytes.Add(int64(n))
	return n, err
}

// countingReader counts bytes consumed from the socket. It sits under the
// bufio layer; read-ahead buffering can run slightly ahead of decoded
// frames, which evens out over a stream.
type countingReader struct {
	r io.Reader
}

func (cr countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	codecStats.wireDecodedBytes.Add(int64(n))
	return n, err
}

// frameEncoder writes frames onto a buffered stream. It is not safe for
// concurrent use: exactly one writer goroutine owns each encoder (that is
// the pipelining invariant of the TCP data plane).
type frameEncoder struct {
	bw      *bufio.Writer
	scratch []byte
}

func newFrameEncoder(w io.Writer) *frameEncoder {
	return &frameEncoder{bw: bufio.NewWriter(countingWriter{w})}
}

// writeFrame emits the 4-byte length prefix and the body, and counts the
// frame.
func (e *frameEncoder) writeFrame(body []byte) error {
	var prefix [4]byte
	binary.BigEndian.PutUint32(prefix[:], uint32(len(body)))
	if _, err := e.bw.Write(prefix[:]); err != nil {
		return err
	}
	if _, err := e.bw.Write(body); err != nil {
		return err
	}
	codecStats.wireEncodes.Add(1)
	return nil
}

// encodeBatch coalesces envelopes into one FrameBatch frame. A batch of one
// is the plain single frame, so a lone envelope never pays batch overhead;
// an empty batch writes nothing.
func encodeBatch[T wireEnvelope](e *frameEncoder, batch []T) error {
	switch len(batch) {
	case 0:
		return nil
	case 1:
		e.scratch = batch[0].appendBody(e.scratch[:0])
	default:
		b := append(e.scratch[:0], frameBatch)
		b = binary.AppendUvarint(b, uint64(len(batch)))
		for _, v := range batch {
			b = binary.AppendUvarint(b, uint64(v.bodySize()))
			b = v.appendBody(b)
		}
		e.scratch = b
	}
	recordFrameEnvelopes(len(batch))
	return e.writeFrame(e.scratch)
}

// flush pushes buffered frames onto the socket. The writer goroutine calls
// it after draining its send queue, so back-to-back frames share one
// syscall.
func (e *frameEncoder) flush() error { return e.bw.Flush() }

// frameDecoder reads frames from a stream. One reader goroutine owns each
// decoder.
type frameDecoder struct {
	br      *bufio.Reader
	scratch []byte
	// pending holds the not-yet-consumed inner bodies of the last FrameBatch
	// frame. They alias scratch, which is safe because readFrame only runs
	// again once pending is empty.
	pending [][]byte
}

func newFrameDecoder(r io.Reader) *frameDecoder {
	return &frameDecoder{br: bufio.NewReader(countingReader{r})}
}

// readFrame reads one length-prefixed frame body into the reused scratch
// buffer. The returned slice is valid until the next readFrame.
func (d *frameDecoder) readFrame() ([]byte, error) {
	var prefix [4]byte
	if _, err := io.ReadFull(d.br, prefix[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(prefix[:])
	if n > maxWireFrame {
		return nil, fmt.Errorf("transport: wire frame of %d bytes exceeds limit %d", n, maxWireFrame)
	}
	if cap(d.scratch) < int(n) {
		d.scratch = make([]byte, n)
	}
	body := d.scratch[:n]
	if _, err := io.ReadFull(d.br, body); err != nil {
		return nil, err
	}
	codecStats.wireDecodes.Add(1)
	return body, nil
}

// nextBody returns the next envelope body: a queued inner body from the last
// batch frame if any remain, otherwise a fresh frame — unpacking it first if
// it is a FrameBatch. Callers see a flat stream of request/reply bodies; the
// read loops never know whether the peer batched.
func (d *frameDecoder) nextBody() ([]byte, error) {
	if len(d.pending) > 0 {
		body := d.pending[0]
		d.pending = d.pending[1:]
		return body, nil
	}
	body, err := d.readFrame()
	if err != nil {
		return nil, err
	}
	if len(body) == 0 || body[0] != frameBatch {
		return body, nil
	}
	c := NewCursor(body[1:])
	n := c.Count(1) // every inner body costs ≥1 byte on the wire
	if c.Err() != nil {
		return nil, fmt.Errorf("transport: batch frame: %w", c.Err())
	}
	if n == 0 {
		return nil, fmt.Errorf("transport: empty batch frame")
	}
	inners := d.pending[:0]
	for i := 0; i < n; i++ {
		inners = append(inners, c.Bytes())
	}
	if err := c.Finish(); err != nil {
		return nil, fmt.Errorf("transport: batch frame: %w", err)
	}
	body = inners[0]
	d.pending = inners[1:]
	return body, nil
}

func (d *frameDecoder) decodeRequest(env *tcpEnvelope) error {
	body, err := d.nextBody()
	if err != nil {
		return err
	}
	c := NewCursor(body)
	if kind := c.Byte(); c.Err() == nil && kind != frameRequest {
		return fmt.Errorf("transport: expected request frame, got kind 0x%02x", kind)
	}
	env.ID = c.Uvarint()
	env.From = types.ProcessID(c.Str())
	env.Req.Service = c.Str()
	env.Req.Key = c.Str()
	env.Req.Config = c.Str()
	env.Req.Type = c.Str()
	env.Req.Payload = ownPayload(c.Bytes())
	return wireErr(c.Finish())
}

func (d *frameDecoder) decodeReply(rep *tcpReply) error {
	body, err := d.nextBody()
	if err != nil {
		return err
	}
	c := NewCursor(body)
	if kind := c.Byte(); c.Err() == nil && kind != frameReply {
		return fmt.Errorf("transport: expected reply frame, got kind 0x%02x", kind)
	}
	rep.ID = c.Uvarint()
	rep.Resp.OK = c.Bool()
	rep.Resp.Err = c.Str()
	rep.Resp.Payload = ownPayload(c.Bytes())
	return wireErr(c.Finish())
}

// ownPayload copies a payload out of the reused frame buffer. Binary body
// decoders alias their input, so every payload the TCP reader hands over
// owns its bytes.
func ownPayload(p []byte) []byte {
	if len(p) == 0 {
		return nil
	}
	return append([]byte(nil), p...)
}

func wireErr(err error) error {
	if err != nil {
		return fmt.Errorf("transport: wire frame: %w", err)
	}
	return nil
}
