package treas

import (
	"encoding/binary"

	"github.com/ares-storage/ares/internal/tag"
	"github.com/ares-storage/ares/internal/transport"
)

// Binary encodings of the TREAS data-path bodies and the snapshot blob
// (transport.BodyEncoder and BodyDecoder). A list entry is its tag, a flag
// byte (1 when it carries a coded element, 0 for ⊥), the length-prefixed
// element when present, and the value length. Decoded elements alias the
// payload.

// minEntrySize is the smallest encoded listEntry: a one-byte Z, an empty W,
// the flag and a one-byte value length.
const minEntrySize = 4

func (r tagResp) BodySize() int { return r.Tag.BodySize() }

func (r tagResp) AppendBody(b []byte) []byte { return r.Tag.AppendBody(b) }

func (r *tagResp) DecodeBody(b []byte) error {
	c := transport.NewCursor(b)
	r.Tag = tag.Decode(&c)
	return c.Finish()
}

func (r listReq) BodySize() int { return r.Floor.BodySize() }

func (r listReq) AppendBody(b []byte) []byte { return r.Floor.AppendBody(b) }

func (r *listReq) DecodeBody(b []byte) error {
	c := transport.NewCursor(b)
	r.Floor = tag.Decode(&c)
	return c.Finish()
}

func (e listEntry) size() int {
	n := e.Tag.BodySize() + 1 + transport.VarintSize(int64(e.ValueLen))
	if e.HasElem {
		n += transport.BytesSize(len(e.Elem))
	}
	return n
}

func (e listEntry) appendTo(b []byte) []byte {
	b = e.Tag.AppendBody(b)
	b = transport.AppendBool(b, e.HasElem)
	if e.HasElem {
		b = transport.AppendBytes(b, e.Elem)
	}
	return binary.AppendVarint(b, int64(e.ValueLen))
}

func readEntry(c *transport.Cursor) listEntry {
	e := listEntry{Tag: tag.Decode(c)}
	if e.HasElem = c.Bool(); e.HasElem {
		e.Elem = c.Bytes()
	}
	e.ValueLen = c.Int()
	return e
}

func entriesSize(entries []listEntry) int {
	n := transport.UvarintSize(uint64(len(entries)))
	for _, e := range entries {
		n += e.size()
	}
	return n
}

func appendEntries(b []byte, entries []listEntry) []byte {
	b = binary.AppendUvarint(b, uint64(len(entries)))
	for _, e := range entries {
		b = e.appendTo(b)
	}
	return b
}

func readEntries(c *transport.Cursor) []listEntry {
	n := c.Count(minEntrySize)
	if n == 0 {
		return nil
	}
	entries := make([]listEntry, n)
	for i := range entries {
		entries[i] = readEntry(c)
	}
	return entries
}

func (r listResp) BodySize() int {
	return transport.VarintSize(int64(r.Index)) + entriesSize(r.Entries)
}

func (r listResp) AppendBody(b []byte) []byte {
	b = binary.AppendVarint(b, int64(r.Index))
	return appendEntries(b, r.Entries)
}

func (r *listResp) DecodeBody(b []byte) error {
	c := transport.NewCursor(b)
	r.Index = c.Int()
	r.Entries = readEntries(&c)
	return c.Finish()
}

func (r putDataReq) BodySize() int {
	return r.Tag.BodySize() + transport.BytesSize(len(r.Elem)) + transport.VarintSize(int64(r.ValueLen))
}

func (r putDataReq) AppendBody(b []byte) []byte {
	b = r.Tag.AppendBody(b)
	b = transport.AppendBytes(b, r.Elem)
	return binary.AppendVarint(b, int64(r.ValueLen))
}

func (r *putDataReq) DecodeBody(b []byte) error {
	c := transport.NewCursor(b)
	r.Tag = tag.Decode(&c)
	r.Elem = c.Bytes()
	r.ValueLen = c.Int()
	return c.Finish()
}

func (s objSnap) BodySize() int { return entriesSize(s.Entries) }

func (s objSnap) AppendBody(b []byte) []byte { return appendEntries(b, s.Entries) }

func (s *objSnap) DecodeBody(b []byte) error {
	c := transport.NewCursor(b)
	s.Entries = readEntries(&c)
	return c.Finish()
}
