package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Binary bodies. A protocol package gives each body on the steady data path
// a hand-written encoding: the value implements BodyEncoder, its pointer
// BodyDecoder, and Marshal/Unmarshal take that path without reflection. The
// encoding is the TCP wire layer's: uvarint lengths and counts, zig-zag
// varints for signed integers, one byte for a flag or an enum. It carries
// no type dictionary and no field names, so a body costs its fields plus
// about one byte of framing per field.
//
// Decoders are strict. Truncated input, trailing bytes, a non-minimal
// varint, a length or count the remaining input cannot hold, or an unknown
// flag or enum byte is an error, never a guess. So a body the decoder
// accepts re-encodes to exactly the bytes it came from. Decoded byte fields
// alias the input: the TCP reader hands every payload over in a buffer of
// its own, and the simulated network shares the sender's read-only slice,
// so a handler that stores a decoded byte field keeps it immutable or
// copies it.

// BodyEncoder is a message body with a hand-written binary encoding.
type BodyEncoder interface {
	// BodySize is the exact number of bytes AppendBody adds.
	BodySize() int
	// AppendBody appends the encoded body to dst.
	AppendBody(dst []byte) []byte
}

// BodyDecoder is implemented by a pointer to a binary body. DecodeBody
// consumes all of b or fails.
type BodyDecoder interface {
	DecodeBody(b []byte) error
}

// errMalformed wraps every body decoding failure.
var errMalformed = errors.New("transport: malformed encoding")

// UvarintSize is the encoded length of v as a uvarint.
func UvarintSize(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// VarintSize is the encoded length of v as a zig-zag varint.
func VarintSize(v int64) int { return UvarintSize(zigzag(v)) }

// BytesSize is the encoded length of an n-byte string or byte field.
func BytesSize(n int) int { return UvarintSize(uint64(n)) + n }

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// AppendString appends s with a uvarint length prefix.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBytes appends p with a uvarint length prefix.
func AppendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// AppendBool appends v as one byte, 1 or 0.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// Cursor walks an encoded body, remembering the first malformation: after
// one read fails, every later read returns a zero value, so a decoder reads
// all of its fields and checks Err (or Finish) once.
type Cursor struct {
	b   []byte
	err error
}

// NewCursor starts a cursor at the front of b.
func NewCursor(b []byte) Cursor { return Cursor{b: b} }

// Err reports the first malformation, if any.
func (c *Cursor) Err() error { return c.err }

// Finish reports the first malformation, or trailing bytes if every read
// succeeded.
func (c *Cursor) Finish() error {
	if c.err == nil && len(c.b) != 0 {
		c.Failf("%d trailing bytes", len(c.b))
	}
	return c.err
}

// Failf records a malformation (the first one wins).
func (c *Cursor) Failf(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s", errMalformed, fmt.Sprintf(format, args...))
		c.b = nil
	}
}

// Byte reads one byte.
func (c *Cursor) Byte() byte {
	if c.err != nil {
		return 0
	}
	if len(c.b) == 0 {
		c.Failf("truncated")
		return 0
	}
	v := c.b[0]
	c.b = c.b[1:]
	return v
}

// Bool reads a byte that must be 0 or 1.
func (c *Cursor) Bool() bool {
	switch v := c.Byte(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		c.Failf("flag byte 0x%02x", v)
		return false
	}
}

// Uvarint reads a minimally encoded uvarint.
func (c *Cursor) Uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		c.Failf("truncated or overlong uvarint")
		return 0
	}
	if n != UvarintSize(v) {
		c.Failf("non-minimal uvarint")
		return 0
	}
	c.b = c.b[n:]
	return v
}

// Varint reads a minimally encoded zig-zag varint.
func (c *Cursor) Varint() int64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Varint(c.b)
	if n <= 0 {
		c.Failf("truncated or overlong varint")
		return 0
	}
	if n != VarintSize(v) {
		c.Failf("non-minimal varint")
		return 0
	}
	c.b = c.b[n:]
	return v
}

// Int reads a zig-zag varint that must fit an int.
func (c *Cursor) Int() int {
	v := c.Varint()
	if v < math.MinInt || v > math.MaxInt {
		c.Failf("varint %d overflows int", v)
		return 0
	}
	return int(v)
}

// Count reads a uvarint element count for elements that each encode to at
// least minSize bytes (minSize >= 1). A count the remaining input cannot
// hold fails, so a caller may allocate count elements up front.
func (c *Cursor) Count(minSize int) int {
	n := c.Uvarint()
	if c.err == nil && n > uint64(len(c.b)/minSize) {
		c.Failf("count %d exceeds the %d remaining bytes", n, len(c.b))
		return 0
	}
	return int(n)
}

// Bytes reads a uvarint-length-prefixed byte field. The result aliases the
// input.
func (c *Cursor) Bytes() []byte {
	n := c.Uvarint()
	if c.err != nil {
		return nil
	}
	if n > uint64(len(c.b)) {
		c.Failf("length %d exceeds the %d remaining bytes", n, len(c.b))
		return nil
	}
	if n == 0 {
		return nil
	}
	p := c.b[:n:n]
	c.b = c.b[n:]
	return p
}

// Str reads a uvarint-length-prefixed string (a copy).
func (c *Cursor) Str() string { return string(c.Bytes()) }
