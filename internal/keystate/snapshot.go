package keystate

// Snapshot files: one per WAL stripe plus one for the host's meta state
// (resolver contents, tombstones). A snapshot file is a sequence of framed
// records in the WAL codec — RecordState entries carrying per-(key, config)
// service blobs, or a single RecordMeta entry — written to a temp file,
// fsynced, and renamed into place so a crash mid-snapshot leaves the previous
// snapshot intact. Replaying a pre-snapshot log record over restored state is
// harmless: every keyed-service mutation is tag-monotone or idempotent, which
// is what lets segments overlap snapshots instead of needing generations.

import (
	"fmt"
	"os"
	"path/filepath"
)

// snapshotWriter accumulates framed records for one snapshot file and
// finalizes them atomically.
type snapshotWriter struct {
	path string
	tmp  *os.File
	buf  []byte
	err  error
}

// newSnapshotWriter opens a temp file next to path.
func newSnapshotWriter(path string) (*snapshotWriter, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return nil, err
	}
	return &snapshotWriter{path: path, tmp: tmp}, nil
}

// add appends one record to the snapshot.
func (sw *snapshotWriter) add(r *Record) {
	if sw.err != nil {
		return
	}
	sw.buf = appendRecord(sw.buf[:0], r)
	_, sw.err = sw.tmp.Write(sw.buf)
}

// finish fsyncs the temp file and renames it over path. On any error the
// temp file is removed and the previous snapshot (if any) is untouched.
func (sw *snapshotWriter) finish() error {
	err := sw.err
	if err == nil {
		err = sw.tmp.Sync()
	}
	if cerr := sw.tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(sw.tmp.Name(), sw.path)
	}
	if err != nil {
		os.Remove(sw.tmp.Name())
		return fmt.Errorf("keystate: writing snapshot %s: %w", sw.path, err)
	}
	return syncDir(filepath.Dir(sw.path))
}

// abort discards the temp file.
func (sw *snapshotWriter) abort() {
	sw.tmp.Close()
	os.Remove(sw.tmp.Name())
}

// readSnapshot calls fn for every intact record of the snapshot file at
// path. A missing file is an empty snapshot. A torn or corrupt tail stops
// the read silently — rename makes whole-file corruption a crash-window
// impossibility, but a snapshot is an optimization over replay either way,
// and the segments it compacted are deleted only after a clean finish.
func readSnapshot(path string, fn func(r Record) error) error {
	records, _, _, err := readSegment(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	for i := range records {
		if err := fn(records[i]); err != nil {
			return fmt.Errorf("keystate: replaying %s: %w", path, err)
		}
	}
	return nil
}

// syncDir fsyncs a directory so a just-created or just-renamed file's
// directory entry is durable (best effort: some platforms reject directory
// fsync, which only widens the crash window back to the filesystem's own
// ordering guarantees).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}
