package keystate

// Write-ahead log: length-prefixed binary records over per-stripe segment
// files. A record body is encoded with the transport body codec
// (uvarint-prefixed strings and byte slices, decoded by a strict
// transport.Cursor), with a CRC32 trailer per record so a torn tail (crash
// mid-append) is detected and truncated instead of failing recovery.
//
// Each log is a sequence of segment files <name>-<seq>.wal. Appends go to
// the newest segment through a dedicated writer goroutine using the same
// drain-then-flush pattern as the TCP connection writer: drain every queued
// append, yield once so concurrent handlers mid-quorum can enqueue theirs,
// write the burst, then fsync once for the whole burst (group commit). A
// snapshot rotates the log to a fresh segment and deletes the old ones once
// the snapshot is durable.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/ares-storage/ares/internal/transport"
)

// Record kinds. Apply/install/retire records live in log segments; state and
// meta records are the snapshot-file framing (same codec, same CRC).
const (
	// RecordApply journals one keyed-service mutation: (family, key,
	// config, op, payload), where payload is the raw wire body the handler
	// received and op selects the family's replay path.
	RecordApply byte = 0x01
	// RecordInstall journals a configuration registration; the payload is
	// the host's encoding of the configuration.
	RecordInstall byte = 0x02
	// RecordRetire journals a (key, config) retirement; the payload carries
	// the finalized successor entry so recovery can re-register it.
	RecordRetire byte = 0x03
	// RecordState is one (key, config) state blob inside a stripe snapshot.
	RecordState byte = 0x04
	// RecordMeta is the opaque resolver/meta blob inside the meta snapshot.
	RecordMeta byte = 0x05
)

// maxWALRecord bounds one record's body, mirroring the transport's frame cap:
// values are bounded by the wire layer, so anything larger is corruption.
const maxWALRecord = 64 << 20

// Record is one durable event: a journaled mutation, a configuration
// lifecycle event, or a snapshot entry.
type Record struct {
	Kind    byte
	Family  string
	Key     string
	Config  string
	Op      byte
	Payload []byte
}

// appendRecord appends one framed record to dst:
//
//	[4-byte BE body length][body][4-byte BE CRC32(body)]
//	body = kind, family, key, config, op, payload (strings/bytes uvarint-prefixed)
func appendRecord(dst []byte, r *Record) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length, patched below
	body := len(dst)
	dst = append(dst, r.Kind)
	dst = transport.AppendString(dst, r.Family)
	dst = transport.AppendString(dst, r.Key)
	dst = transport.AppendString(dst, r.Config)
	dst = append(dst, r.Op)
	dst = transport.AppendBytes(dst, r.Payload)
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-body))
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[body:]))
}

// errBadRecord marks a record rejected by framing, CRC, or body decoding —
// the signal recovery treats as "torn tail: truncate here".
var errBadRecord = errors.New("keystate: wal record corrupt")

// decodeFrame parses one framed record from the front of b, returning the
// record and the total bytes consumed. io.ErrUnexpectedEOF reports a frame
// extending past b (a torn final record); errBadRecord wraps CRC and body
// failures.
func decodeFrame(b []byte) (Record, int, error) {
	if len(b) < 4 {
		return Record{}, 0, io.ErrUnexpectedEOF
	}
	n := binary.BigEndian.Uint32(b)
	if n > maxWALRecord {
		return Record{}, 0, fmt.Errorf("%w: body length %d exceeds cap", errBadRecord, n)
	}
	total := 4 + int(n) + 4
	if len(b) < total {
		return Record{}, 0, io.ErrUnexpectedEOF
	}
	body := b[4 : 4+n]
	sum := binary.BigEndian.Uint32(b[4+n:])
	if crc32.ChecksumIEEE(body) != sum {
		return Record{}, 0, fmt.Errorf("%w: crc mismatch", errBadRecord)
	}
	cur := transport.NewCursor(body)
	r := Record{Kind: cur.Byte()}
	r.Family = cur.Str()
	r.Key = cur.Str()
	r.Config = cur.Str()
	r.Op = cur.Byte()
	r.Payload = append([]byte(nil), cur.Bytes()...)
	if err := cur.Finish(); err != nil {
		return Record{}, 0, fmt.Errorf("%w: %v", errBadRecord, err)
	}
	return r, total, nil
}

// readSegment reads every intact record of one segment file. It returns the
// records, the byte offset of the first corrupt or torn record (== file size
// when the segment is clean), and whether a truncation point was found. Only
// I/O errors are returned as err; corruption is a truncation point, not a
// failure — crash-mid-append legitimately leaves a torn final record.
func readSegment(path string) (records []Record, validLen int64, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, false, err
	}
	off := 0
	for off < len(data) {
		r, n, derr := decodeFrame(data[off:])
		if derr != nil {
			return records, int64(off), true, nil
		}
		records = append(records, r)
		off += n
	}
	return records, int64(off), false, nil
}

// walAppend is one queued append: the framed bytes and the caller's
// completion channel, answered once the record is written (and, with fsync
// enabled, durable).
type walAppend struct {
	frame []byte
	errc  chan error
}

// errWALClosed reports an append against a closed log.
var errWALClosed = errors.New("keystate: wal closed")

// wal is one append-only segmented log (a stripe's, or the meta log).
type wal struct {
	dir   string
	name  string
	fsync bool

	mu  sync.Mutex // guards f, seq, closed
	f   *os.File
	seq int

	closed bool
	reqs   chan *walAppend
	quit   chan struct{}
	done   chan struct{}
}

// segPath names segment seq of log name.
func segPath(dir, name string, seq int) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%d.wal", name, seq))
}

// listSegments returns the existing segment paths of one log in sequence
// order, plus the highest sequence number (0 when none exist).
func listSegments(dir, name string) (paths []string, lastSeq int, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	type seg struct {
		seq  int
		path string
	}
	var segs []seg
	prefix := name + "-"
	for _, e := range entries {
		base := e.Name()
		if !strings.HasPrefix(base, prefix) || !strings.HasSuffix(base, ".wal") {
			continue
		}
		seqStr := strings.TrimSuffix(strings.TrimPrefix(base, prefix), ".wal")
		seq, convErr := strconv.Atoi(seqStr)
		if convErr != nil || seq < 1 {
			continue
		}
		segs = append(segs, seg{seq: seq, path: filepath.Join(dir, base)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	for _, s := range segs {
		paths = append(paths, s.path)
		lastSeq = s.seq
	}
	return paths, lastSeq, nil
}

// openWAL opens the log for appending at segment seq (creating it if
// missing) and starts the writer goroutine. Callers replay existing segments
// — truncating any torn tail — before opening.
func openWAL(dir, name string, seq int, fsync bool) (*wal, error) {
	if seq < 1 {
		seq = 1
	}
	f, err := os.OpenFile(segPath(dir, name, seq), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	w := &wal{
		dir:   dir,
		name:  name,
		fsync: fsync,
		f:     f,
		seq:   seq,
		reqs:  make(chan *walAppend, 256),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go w.writeLoop()
	return w, nil
}

// append blocks until the framed record is written — and, with fsync
// enabled, durable — or the log is closed.
func (w *wal) append(frame []byte) error {
	defer walAppendSeconds.ObserveSince(time.Now())
	walAppends.Inc()
	walAppendedBytes.Add(int64(len(frame)))
	req := &walAppend{frame: frame, errc: make(chan error, 1)}
	select {
	case w.reqs <- req:
	case <-w.quit:
		return errWALClosed
	}
	select {
	case err := <-req.errc:
		return err
	case <-w.done:
		// The writer exited mid-flight; it fails every drained request
		// before closing done, so a pending errc is already answered.
		select {
		case err := <-req.errc:
			return err
		default:
			return errWALClosed
		}
	}
}

// writeLoop is the group-commit writer: drain every queued append, yield the
// processor once so handlers racing through their own append calls can join
// the burst, write the burst, sync once, answer everyone.
func (w *wal) writeLoop() {
	defer close(w.done)
	var batch []*walAppend
	for {
		select {
		case req := <-w.reqs:
			batch = append(batch[:0], req)
			yielded := false
		drain:
			for {
				select {
				case more := <-w.reqs:
					batch = append(batch, more)
					continue
				default:
				}
				if !yielded {
					yielded = true
					runtime.Gosched()
					continue drain
				}
				break drain
			}
			w.commit(batch)
		case <-w.quit:
			// Flush whatever is still queued, then exit.
			for {
				select {
				case req := <-w.reqs:
					batch = append(batch[:0], req)
					w.commit(batch)
				default:
					return
				}
			}
		}
	}
}

// commit writes one burst, syncs it once (with fsync on), and only then
// answers its appenders, so no acknowledgment precedes its barrier. It holds
// mu throughout, so a rotate (retire records append outside the snapshot
// gate) cannot switch or close the file between the write and its sync.
func (w *wal) commit(batch []*walAppend) {
	walCommits.Inc()
	w.mu.Lock()
	var err error
	for _, req := range batch {
		if err == nil {
			_, err = w.f.Write(req.frame)
		}
	}
	if err == nil && w.fsync {
		err = timedSync(w.f)
	}
	w.mu.Unlock()
	for _, req := range batch {
		req.errc <- err
	}
}

// timedSync performs one fsync barrier, attributing it to the registry.
func timedSync(f *os.File) error {
	start := time.Now()
	err := f.Sync()
	walFsyncs.Inc()
	walFsyncSeconds.ObserveSince(start)
	return err
}

// rotate syncs the active segment, switches appends to the next one, closes
// the old one, and returns the paths of every earlier segment (the snapshot
// deletes them once it is durable). The next segment opens before the old
// one closes, so a failed open leaves the log appending where it was.
func (w *wal) rotate() (oldSegments []string, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil, errWALClosed
	}
	if err := timedSync(w.f); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(segPath(w.dir, w.name, w.seq+1), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	for seq := 1; seq <= w.seq; seq++ {
		p := segPath(w.dir, w.name, seq)
		if _, statErr := os.Stat(p); statErr == nil {
			oldSegments = append(oldSegments, p)
		}
	}
	old := w.f
	w.f, w.seq = f, w.seq+1
	if err := old.Close(); err != nil {
		return nil, err
	}
	return oldSegments, nil
}

// close stops the writer (flushing queued appends), syncs, and closes the
// active segment.
func (w *wal) close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.mu.Unlock()
	close(w.quit)
	<-w.done
	w.mu.Lock()
	defer w.mu.Unlock()
	err := timedSync(w.f)
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}
