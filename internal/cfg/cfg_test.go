package cfg

import (
	"strings"
	"testing"

	"github.com/ares-storage/ares/internal/types"
)

func servers(names ...string) []types.ProcessID {
	out := make([]types.ProcessID, len(names))
	for i, n := range names {
		out[i] = types.ProcessID(n)
	}
	return out
}

func validTreas() Configuration {
	return Configuration{
		ID:        "c1",
		Algorithm: TREAS,
		Servers:   servers("s1", "s2", "s3", "s4", "s5"),
		K:         3,
		Delta:     2,
	}
}

func TestValidate(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name    string
		mutate  func(*Configuration)
		wantErr string
	}{
		{"valid treas", func(c *Configuration) {}, ""},
		{"empty id", func(c *Configuration) { c.ID = "" }, "empty ID"},
		{"no servers", func(c *Configuration) { c.Servers = nil }, "no servers"},
		{"duplicate server", func(c *Configuration) { c.Servers = servers("s1", "s1") }, "duplicate"},
		{"k too large", func(c *Configuration) { c.K = 6 }, "out of range"},
		{"k zero for treas", func(c *Configuration) { c.K = 0 }, "out of range"},
		{"negative delta", func(c *Configuration) { c.Delta = -1 }, "negative delta"},
		{"unknown algorithm", func(c *Configuration) { c.Algorithm = "paxos" }, "unknown algorithm"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			c := validTreas()
			tc.mutate(&c)
			err := c.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestValidateABD(t *testing.T) {
	t.Parallel()
	c := Configuration{ID: "c0", Algorithm: ABD, Servers: servers("s1", "s2", "s3")}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	c.K = 2
	if err := c.Validate(); err == nil {
		t.Fatal("ABD with k=2 validated")
	}
}

func TestQuorumSelection(t *testing.T) {
	t.Parallel()
	tre := validTreas()
	if got := tre.Quorum().Size(); got != 4 { // ⌈(5+3)/2⌉
		t.Fatalf("treas quorum size = %d, want 4", got)
	}
	abd := Configuration{ID: "c0", Algorithm: ABD, Servers: servers("s1", "s2", "s3", "s4", "s5")}
	if got := abd.Quorum().Size(); got != 3 {
		t.Fatalf("abd quorum size = %d, want 3", got)
	}
}

func TestServerIndex(t *testing.T) {
	t.Parallel()
	c := validTreas()
	idx, ok := c.ServerIndex("s3")
	if !ok || idx != 2 {
		t.Fatalf("ServerIndex(s3) = (%d, %v), want (2, true)", idx, ok)
	}
	if _, ok := c.ServerIndex("stranger"); ok {
		t.Fatal("ServerIndex found a non-member")
	}
}

func TestStatusString(t *testing.T) {
	t.Parallel()
	if Pending.String() != "P" || Finalized.String() != "F" {
		t.Fatal("status strings wrong")
	}
	if !strings.Contains(Status(9).String(), "9") {
		t.Fatal("invalid status should render its numeric value")
	}
}
