// Package cfg defines configurations and configuration sequences, the data
// types at the heart of the ARES reconfiguration service (§2, §4.1).
//
// A configuration names a set of servers, the quorum system defined over
// them, and the atomic-memory algorithm (with its parameters) that emulates
// the object inside that configuration. A configuration sequence cseq is
// each process's local approximation of the global configuration sequence
// GL: an append-only list of ⟨cfg, status⟩ pairs where status is P (pending)
// or F (finalized).
package cfg

import (
	"fmt"

	"github.com/ares-storage/ares/internal/quorum"
	"github.com/ares-storage/ares/internal/types"
)

// ID uniquely identifies a configuration.
type ID string

// Algorithm names the atomic memory emulation used within a configuration.
// ARES allows each configuration to pick its own (Remark 22).
type Algorithm string

// The algorithms shipped with this library.
const (
	// ABD is the replication-based MWABD algorithm (Appendix A.1).
	ABD Algorithm = "abd"
	// TREAS is the two-round erasure-coded algorithm of §3.
	TREAS Algorithm = "treas"
)

// Status marks whether a configuration in a sequence is still pending (P)
// or has been finalized (F) by a reconfiguration operation.
type Status uint8

// Status values. Enums start at one so the zero value is invalid and
// accidental zero-initialization is caught.
const (
	// Pending (P): the configuration was added but update/finalize has not
	// completed.
	Pending Status = iota + 1
	// Finalized (F): the configuration holds a value at least as recent as
	// every preceding configuration; operations may start from here.
	Finalized
)

// String renders the status as the paper's P/F.
func (s Status) String() string {
	switch s {
	case Pending:
		return "P"
	case Finalized:
		return "F"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// Configuration describes one configuration c (§2): its servers, quorum
// system, and the DAP implementation parameters.
type Configuration struct {
	// ID is the unique configuration identifier. Template configurations —
	// the per-key blueprints a composed store stamps out — embed
	// KeyPlaceholder in their ID; ForKey instantiates them.
	ID ID
	// Key names the object (register) this configuration serves. Every
	// message addressed to the configuration carries it, and servers route on
	// (service, key, config). Empty for a deployment's default register and
	// for templates; ForKey fills it in.
	Key string
	// Algorithm selects the DAP implementation for this configuration.
	Algorithm Algorithm
	// Servers lists the member server processes (c.Servers).
	Servers []types.ProcessID
	// K is the erasure-code dimension for TREAS ([n, k] with n =
	// len(Servers)); ABD accepts only 0 or 1.
	K int
	// Delta bounds the number of (tag, coded-element) pairs each TREAS
	// server retains (δ+1 highest tags keep their elements).
	Delta int
}

// N returns the number of servers in the configuration.
func (c Configuration) N() int { return len(c.Servers) }

// Validate checks the structural invariants of the configuration.
func (c Configuration) Validate() error {
	if c.ID == "" {
		return fmt.Errorf("cfg %q: empty ID", c.ID)
	}
	if len(c.Servers) == 0 {
		return fmt.Errorf("cfg %q: no servers", c.ID)
	}
	seen := make(map[types.ProcessID]bool, len(c.Servers))
	for _, s := range c.Servers {
		if seen[s] {
			return fmt.Errorf("cfg %q: duplicate server %s", c.ID, s)
		}
		seen[s] = true
	}
	switch c.Algorithm {
	case TREAS:
		if c.K < 1 || c.K > len(c.Servers) {
			return fmt.Errorf("cfg %q: treas k = %d out of range [1, %d]", c.ID, c.K, len(c.Servers))
		}
		if c.Delta < 0 {
			return fmt.Errorf("cfg %q: negative delta", c.ID)
		}
	case ABD:
		if c.K > 1 {
			return fmt.Errorf("cfg %q: abd does not take k = %d", c.ID, c.K)
		}
	default:
		return fmt.Errorf("cfg %q: unknown algorithm %q", c.ID, c.Algorithm)
	}
	return nil
}

// Quorum returns the quorum system defined on c.Servers: the ⌈(n+k)/2⌉
// threshold system for TREAS, majorities otherwise. The reconfiguration
// service's read-config/put-config actions use the same system (Alg. 4
// awaits "a quorum in c.Quorums").
func (c Configuration) Quorum() quorum.System {
	if c.Algorithm == TREAS {
		return quorum.MustThreshold(len(c.Servers), c.K)
	}
	return quorum.MustMajority(len(c.Servers))
}

// ServerIndex returns the position of s within c.Servers, the shard index i
// for which the server stores Φ_i(v); ok is false when s is not a member.
func (c Configuration) ServerIndex(s types.ProcessID) (int, bool) {
	for i, member := range c.Servers {
		if member == s {
			return i, true
		}
	}
	return 0, false
}

// Equal reports whether two configurations are the same configuration
// (compared by ID; IDs are unique by construction).
func (c Configuration) Equal(other Configuration) bool {
	return c.ID == other.ID
}

// Same reports whether two configurations are identical in every field that
// affects protocol behaviour — the test installation paths use to tell an
// idempotent re-install (harmless) from a conflicting one (an error: IDs
// must be unique by construction, so two different configurations under one
// ID is a deployment bug).
func (c Configuration) Same(other Configuration) bool {
	if c.ID != other.ID || c.Key != other.Key || c.Algorithm != other.Algorithm ||
		c.K != other.K || c.Delta != other.Delta || len(c.Servers) != len(other.Servers) {
		return false
	}
	for i := range c.Servers {
		if c.Servers[i] != other.Servers[i] {
			return false
		}
	}
	return true
}

// String renders a compact description.
func (c Configuration) String() string {
	return fmt.Sprintf("%s[%s n=%d k=%d]", c.ID, c.Algorithm, len(c.Servers), c.K)
}
