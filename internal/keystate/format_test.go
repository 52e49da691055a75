package keystate

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writtenDir returns a closed data directory holding one journaled write:
// in a log segment, or with snapshot only in snapshot files (every segment
// removed).
func writtenDir(t *testing.T, snapshot bool) string {
	t.Helper()
	dir := t.TempDir()
	d, svc, _ := openTestDurability(t, dir, WithWALStripes(1))
	if _, err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := svc.write("k", "c0", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if snapshot {
		if err := d.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if snapshot {
		segs, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
		for _, p := range segs {
			if err := os.Remove(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	return dir
}

// TestDurabilityStampsFormat pins that a fresh directory is stamped with
// FormatVersion on its first recovery and recovers again under it.
func TestDurabilityStampsFormat(t *testing.T) {
	dir := writtenDir(t, false)
	data, err := os.ReadFile(filepath.Join(dir, formatFile))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(data)); got != "2" {
		t.Fatalf("format marker = %q, want 2", got)
	}
	d, svc, _ := openTestDurability(t, dir, WithWALStripes(1))
	defer d.Close()
	if _, err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := string(svc.get("k", "c0")); got != "v" {
		t.Fatalf("recovered %q, want v", got)
	}
}

// TestDurabilityRefusesOtherFormat pins fail-stop on a directory of another
// format: one with segments or snapshots but no marker (format 1, before
// markers existed) and one whose marker names a different version. Recover
// must refuse both, naming the directory's format and the build's.
func TestDurabilityRefusesOtherFormat(t *testing.T) {
	cases := map[string]struct {
		snapshot bool
		marker   string // "" removes the marker
		want     string
	}{
		"missing marker, log":      {marker: "", want: "holds data format 1"},
		"missing marker, snapshot": {snapshot: true, marker: "", want: "holds data format 1"},
		"wrong version":            {marker: "3\n", want: "holds data format 3"},
	}
	for name, tc := range cases {
		tc := tc
		t.Run(name, func(t *testing.T) {
			dir := writtenDir(t, tc.snapshot)
			path := filepath.Join(dir, formatFile)
			if tc.marker == "" {
				if err := os.Remove(path); err != nil {
					t.Fatal(err)
				}
			} else if err := os.WriteFile(path, []byte(tc.marker), 0o644); err != nil {
				t.Fatal(err)
			}
			d, _, _ := openTestDurability(t, dir, WithWALStripes(1))
			defer d.Close()
			_, err := d.Recover()
			if err == nil {
				t.Fatal("recovered a directory of another format")
			}
			if !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "this build reads format 2") {
				t.Fatalf("error %q does not name both formats", err)
			}
		})
	}
}
