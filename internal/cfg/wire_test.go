package cfg

import (
	"testing"

	"github.com/ares-storage/ares/internal/transport"
)

// Configurations and sequence entries travel inside consensus proposals,
// nextC pointers, and install commands; these tests pin their wire
// round-trip through the transport codec.

func TestConfigurationGobRoundTrip(t *testing.T) {
	t.Parallel()
	in := Configuration{
		ID:        "c7",
		Algorithm: TREAS,
		Servers:   servers("s1", "s2", "s3", "s4", "s5"),
		K:         3,
		Delta:     4,
	}
	data, err := transport.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Configuration
	if err := transport.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !in.Equal(out) || out.Algorithm != TREAS || len(out.Servers) != 5 || out.K != 3 || out.Delta != 4 {
		t.Fatalf("round trip = %+v", out)
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("decoded configuration invalid: %v", err)
	}
}

func TestEntryGobRoundTrip(t *testing.T) {
	t.Parallel()
	in := Entry{
		Cfg:    Configuration{ID: "c1", Algorithm: ABD, Servers: servers("a", "b", "c")},
		Status: Pending,
	}
	data, err := transport.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Entry
	if err := transport.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Status != Pending || out.Cfg.ID != "c1" {
		t.Fatalf("round trip = %+v", out)
	}
}
