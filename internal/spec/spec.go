// Package spec parses the compact textual configuration descriptions used
// by the command-line tools, so a configuration can be passed as a single
// flag value:
//
//	id=c0;alg=treas;servers=s1,s2,s3,s4,s5;k=3;delta=4
//	id=c1;alg=abd;servers=a1,a2,a3
package spec

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/ares-storage/ares/internal/cfg"
	"github.com/ares-storage/ares/internal/types"
)

// Parse converts a configuration spec string into a Configuration and
// validates it.
func Parse(s string) (cfg.Configuration, error) {
	var c cfg.Configuration
	for _, field := range strings.Split(s, ";") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, value, found := strings.Cut(field, "=")
		if !found {
			return cfg.Configuration{}, fmt.Errorf("spec: field %q is not key=value", field)
		}
		key = strings.TrimSpace(key)
		value = strings.TrimSpace(value)
		switch key {
		case "id":
			c.ID = cfg.ID(value)
		case "alg", "algorithm":
			c.Algorithm = cfg.Algorithm(value)
		case "servers":
			c.Servers = parseIDs(value)
		case "k":
			k, err := strconv.Atoi(value)
			if err != nil {
				return cfg.Configuration{}, fmt.Errorf("spec: k: %w", err)
			}
			c.K = k
		case "delta":
			d, err := strconv.Atoi(value)
			if err != nil {
				return cfg.Configuration{}, fmt.Errorf("spec: delta: %w", err)
			}
			c.Delta = d
		default:
			return cfg.Configuration{}, fmt.Errorf("spec: unknown field %q", key)
		}
	}
	if err := c.Validate(); err != nil {
		return cfg.Configuration{}, fmt.Errorf("spec: %w", err)
	}
	return c, nil
}

// Format renders a Configuration back into its spec string (Parse∘Format is
// the identity on the fields Parse reads).
func Format(c cfg.Configuration) string {
	parts := []string{
		"id=" + string(c.ID),
		"alg=" + string(c.Algorithm),
		"servers=" + joinIDs(c.Servers),
	}
	if c.Algorithm == cfg.TREAS {
		parts = append(parts, fmt.Sprintf("k=%d", c.K), fmt.Sprintf("delta=%d", c.Delta))
	}
	return strings.Join(parts, ";")
}

// ParseBook parses an address book of the form "s1=host:port,s2=host:port".
func ParseBook(s string) (map[types.ProcessID]string, error) {
	book := make(map[types.ProcessID]string)
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		id, addr, found := strings.Cut(field, "=")
		if !found {
			return nil, fmt.Errorf("spec: peer %q is not id=addr", field)
		}
		book[types.ProcessID(strings.TrimSpace(id))] = strings.TrimSpace(addr)
	}
	if len(book) == 0 {
		return nil, fmt.Errorf("spec: empty address book")
	}
	return book, nil
}

func parseIDs(s string) []types.ProcessID {
	var out []types.ProcessID
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part != "" {
			out = append(out, types.ProcessID(part))
		}
	}
	return out
}

func joinIDs(ids []types.ProcessID) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = string(id)
	}
	return strings.Join(parts, ",")
}
