package abd

import (
	"github.com/ares-storage/ares/internal/tag"
	"github.com/ares-storage/ares/internal/transport"
)

// Binary encodings of the ABD bodies (transport.BodyEncoder and
// BodyDecoder). A tag reply is the tag alone; every body that carries a
// value is the tag followed by the length-prefixed value. Decoded values
// alias the payload, which is why apply clones before it stores.

func (r tagResp) BodySize() int { return r.Tag.BodySize() }

func (r tagResp) AppendBody(b []byte) []byte { return r.Tag.AppendBody(b) }

func (r *tagResp) DecodeBody(b []byte) error {
	c := transport.NewCursor(b)
	r.Tag = tag.Decode(&c)
	return c.Finish()
}

func (p pairBody) BodySize() int {
	return p.Tag.BodySize() + transport.BytesSize(len(p.Value))
}

func (p pairBody) AppendBody(b []byte) []byte {
	b = p.Tag.AppendBody(b)
	return transport.AppendBytes(b, p.Value)
}

func (p *pairBody) DecodeBody(b []byte) error {
	c := transport.NewCursor(b)
	p.Tag = tag.Decode(&c)
	p.Value = c.Bytes()
	return c.Finish()
}
