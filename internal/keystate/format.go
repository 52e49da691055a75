package keystate

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// FormatVersion is the on-disk format of a durability directory: the
// encoding of the service bodies that log records and snapshot blobs carry.
// Format 1 journaled gob bodies and wrote no marker; format 2 journals the
// binary bodies of the transport codec. A directory records its format in a
// marker file written when it first recovers empty, and Recover refuses a
// directory holding data of any other format: a strict body decoder must
// never be what decides whether bytes of an older format parse.
const FormatVersion = 2

// formatFile names the marker file; it holds the version in decimal.
const formatFile = "FORMAT"

// checkFormat verifies dir's format marker. A directory without one is
// stamped with FormatVersion if it holds no log segment or snapshot yet,
// and refused as format 1 otherwise.
func checkFormat(dir string) error {
	data, err := os.ReadFile(filepath.Join(dir, formatFile))
	if err == nil {
		v, perr := strconv.Atoi(strings.TrimSpace(string(data)))
		if perr != nil {
			return fmt.Errorf("keystate: %s: unreadable format marker %q", dir, data)
		}
		if v != FormatVersion {
			return fmt.Errorf("keystate: %s holds data format %d; this build reads format %d", dir, v, FormatVersion)
		}
		return nil
	}
	if !os.IsNotExist(err) {
		return fmt.Errorf("keystate: reading format marker: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if name := e.Name(); strings.HasSuffix(name, ".wal") || strings.HasSuffix(name, ".snap") {
			return fmt.Errorf("keystate: %s holds data format 1 (%s, no %s marker); this build reads format %d",
				dir, name, formatFile, FormatVersion)
		}
	}
	return writeFormat(dir)
}

// writeFormat stamps dir with FormatVersion: temp file, fsync, rename,
// directory fsync — so the marker is durable before the first record is.
func writeFormat(dir string) error {
	tmp, err := os.CreateTemp(dir, formatFile+".tmp-*")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(tmp, "%d\n", FormatVersion)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(dir, formatFile))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("keystate: writing format marker: %w", err)
	}
	return syncDir(dir)
}
