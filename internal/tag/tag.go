// Package tag implements the logical timestamps ("tags") that order write
// operations in every algorithm of the ARES paper (§2).
//
// A tag is a pair (z, w) where z is an unbounded integer and w the ID of a
// writer. Tags are totally ordered: (z1, w1) < (z2, w2) iff z1 < z2, or
// z1 == z2 and w1 < w2. Each write increments the integer part of the
// maximum tag it discovers and stamps its own writer ID, which makes tags
// generated by distinct writers distinct and tags of one well-formed writer
// strictly increasing.
package tag

import (
	"encoding/binary"
	"fmt"

	"github.com/ares-storage/ares/internal/transport"
	"github.com/ares-storage/ares/internal/types"
)

// Tag is the logical timestamp τ = (z, w) attached to every written value.
// The zero Tag is t0, the tag of the initial value v0.
type Tag struct {
	// Z is the integer component of the tag.
	Z int64
	// W is the ID of the writer that generated the tag.
	W types.ProcessID
}

// Zero is t0, the tag associated with the initial value of the object.
var Zero = Tag{}

// Less reports whether t orders strictly before other.
func (t Tag) Less(other Tag) bool {
	if t.Z != other.Z {
		return t.Z < other.Z
	}
	return t.W < other.W
}

// LessEq reports whether t orders before or equal to other.
func (t Tag) LessEq(other Tag) bool {
	return t == other || t.Less(other)
}

// Compare returns -1, 0 or +1 as t orders before, equal to, or after other.
func (t Tag) Compare(other Tag) int {
	switch {
	case t == other:
		return 0
	case t.Less(other):
		return -1
	default:
		return 1
	}
}

// Next returns the tag a writer w generates after discovering t as the
// maximum tag: (t.Z+1, w). See Alg. 10 line 8.
func (t Tag) Next(w types.ProcessID) Tag {
	return Tag{Z: t.Z + 1, W: w}
}

// Max returns the larger of a and b.
func Max(a, b Tag) Tag {
	if a.Less(b) {
		return b
	}
	return a
}

// MaxOf returns the maximum of a non-empty set of tags; it returns Zero for
// an empty slice (the initial tag).
func MaxOf(tags ...Tag) Tag {
	out := Zero
	for _, t := range tags {
		out = Max(out, t)
	}
	return out
}

// String renders the tag as (z, w).
func (t Tag) String() string {
	return fmt.Sprintf("(%d,%s)", t.Z, t.W)
}

// BodySize is the length of t's binary encoding (transport.BodyEncoder).
func (t Tag) BodySize() int {
	return transport.VarintSize(t.Z) + transport.BytesSize(len(t.W))
}

// AppendBody appends t's binary encoding: Z as a zig-zag varint, then W as
// a length-prefixed string. Every binary body that carries a tag embeds
// this encoding.
func (t Tag) AppendBody(b []byte) []byte {
	b = binary.AppendVarint(b, t.Z)
	return transport.AppendString(b, string(t.W))
}

// Decode reads a tag written by AppendBody.
func Decode(c *transport.Cursor) Tag {
	z := c.Varint()
	return Tag{Z: z, W: types.ProcessID(c.Str())}
}

// Pair couples a tag with a value, the unit stored and transferred by the
// DAPs (Definition 1: put-data and get-data operate on tag-value pairs).
type Pair struct {
	Tag   Tag
	Value types.Value
}

// MaxPair returns the pair with the larger tag.
func MaxPair(a, b Pair) Pair {
	if a.Tag.Less(b.Tag) {
		return b
	}
	return a
}
