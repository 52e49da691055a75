package recon

import (
	"encoding/binary"

	"github.com/ares-storage/ares/internal/cfg"
	"github.com/ares-storage/ares/internal/transport"
	"github.com/ares-storage/ares/internal/types"
)

// Binary encoding of the read-config reply (transport.BodyEncoder and
// BodyDecoder), the one recon body every Get and Put sends. A reply is a
// flag byte, and when the flag is 1 the successor entry: ID, key and
// algorithm as length-prefixed strings, the server count and servers, K and
// Delta as zig-zag varints, and the status byte. Write-config, off the
// steady path, stays on the gob fallback.

func entrySize(e cfg.Entry) int {
	c := e.Cfg
	n := transport.BytesSize(len(c.ID)) + transport.BytesSize(len(c.Key)) +
		transport.BytesSize(len(c.Algorithm)) + transport.UvarintSize(uint64(len(c.Servers))) +
		transport.VarintSize(int64(c.K)) + transport.VarintSize(int64(c.Delta)) + 1
	for _, s := range c.Servers {
		n += transport.BytesSize(len(s))
	}
	return n
}

func appendEntry(b []byte, e cfg.Entry) []byte {
	c := e.Cfg
	b = transport.AppendString(b, string(c.ID))
	b = transport.AppendString(b, c.Key)
	b = transport.AppendString(b, string(c.Algorithm))
	b = binary.AppendUvarint(b, uint64(len(c.Servers)))
	for _, s := range c.Servers {
		b = transport.AppendString(b, string(s))
	}
	b = binary.AppendVarint(b, int64(c.K))
	b = binary.AppendVarint(b, int64(c.Delta))
	return append(b, byte(e.Status))
}

func readEntry(c *transport.Cursor) cfg.Entry {
	var e cfg.Entry
	e.Cfg.ID = cfg.ID(c.Str())
	e.Cfg.Key = c.Str()
	e.Cfg.Algorithm = cfg.Algorithm(c.Str())
	if n := c.Count(1); n > 0 {
		e.Cfg.Servers = make([]types.ProcessID, n)
		for i := range e.Cfg.Servers {
			e.Cfg.Servers[i] = types.ProcessID(c.Str())
		}
	}
	e.Cfg.K = c.Int()
	e.Cfg.Delta = c.Int()
	switch st := cfg.Status(c.Byte()); st {
	case cfg.Pending, cfg.Finalized:
		e.Status = st
	default:
		c.Failf("configuration status %d", st)
	}
	return e
}

func (r readConfigResp) BodySize() int {
	if !r.HasNext {
		return 1
	}
	return 1 + entrySize(r.Next)
}

func (r readConfigResp) AppendBody(b []byte) []byte {
	b = transport.AppendBool(b, r.HasNext)
	if r.HasNext {
		b = appendEntry(b, r.Next)
	}
	return b
}

func (r *readConfigResp) DecodeBody(b []byte) error {
	c := transport.NewCursor(b)
	*r = readConfigResp{HasNext: c.Bool()}
	if r.HasNext {
		r.Next = readEntry(&c)
	}
	return c.Finish()
}
