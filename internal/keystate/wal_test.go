package keystate

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// TestRecordRoundTrip pins the frame codec: every field survives, including
// empty strings and payloads, and consumed-byte counts chain frames.
func TestRecordRoundTrip(t *testing.T) {
	records := []Record{
		{Kind: RecordApply, Family: "abd", Key: "user:1", Config: "c0", Op: 1, Payload: []byte("hello")},
		{Kind: RecordInstall, Payload: []byte{0x00, 0xff, 0x10}},
		{Kind: RecordRetire, Key: "k", Config: "c1", Payload: nil},
		{Kind: RecordState, Family: "treas", Key: "a/b/c", Config: "tpl-{key}", Op: 0xff, Payload: bytes.Repeat([]byte("x"), 4096)},
		{Kind: RecordMeta},
	}
	var buf []byte
	for i := range records {
		buf = appendRecord(buf, &records[i])
	}
	off := 0
	for i := range records {
		got, n, err := decodeFrame(buf[off:])
		if err != nil {
			t.Fatalf("record %d: decode: %v", i, err)
		}
		want := records[i]
		if want.Payload == nil {
			want.Payload = []byte{}
		}
		if got.Payload == nil {
			got.Payload = []byte{}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d: got %+v want %+v", i, got, want)
		}
		off += n
	}
	if off != len(buf) {
		t.Fatalf("consumed %d of %d bytes", off, len(buf))
	}
}

// TestDecodeFrameTorn pins the torn-tail signal: any prefix of a valid frame
// decodes to io.ErrUnexpectedEOF, never to success or a corruption error.
func TestDecodeFrameTorn(t *testing.T) {
	frame := appendRecord(nil, &Record{Kind: RecordApply, Family: "abd", Key: "k", Config: "c", Op: 2, Payload: []byte("payload")})
	for cut := 0; cut < len(frame); cut++ {
		_, _, err := decodeFrame(frame[:cut])
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("prefix %d/%d: got %v, want ErrUnexpectedEOF", cut, len(frame), err)
		}
	}
}

// TestDecodeFrameBitFlip pins CRC coverage: flipping any single bit of a
// complete frame must fail decoding (as corruption, or as a torn/oversized
// frame when the flipped bit is in the length prefix).
func TestDecodeFrameBitFlip(t *testing.T) {
	frame := appendRecord(nil, &Record{Kind: RecordApply, Family: "ldr-rep", Key: "key", Config: "cfg", Op: 1, Payload: []byte("abc")})
	for i := 0; i < len(frame)*8; i++ {
		mut := append([]byte(nil), frame...)
		mut[i/8] ^= 1 << (i % 8)
		if _, _, err := decodeFrame(mut); err == nil {
			t.Fatalf("bit flip at %d decoded successfully", i)
		}
	}
}

func TestDecodeFrameOversized(t *testing.T) {
	var b [8]byte
	b[0], b[1], b[2], b[3] = 0xff, 0xff, 0xff, 0xff
	if _, _, err := decodeFrame(b[:]); !errors.Is(err, errBadRecord) {
		t.Fatalf("got %v, want errBadRecord", err)
	}
}

func mustAppend(t *testing.T, w *wal, r *Record) {
	t.Helper()
	if err := w.append(appendRecord(nil, r)); err != nil {
		t.Fatalf("append: %v", err)
	}
}

// TestWALAppendReadBack pins the basic cycle: records appended through the
// group-commit writer read back in order from the segment file.
func TestWALAppendReadBack(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, "s0", 1, false)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		mustAppend(t, w, &Record{Kind: RecordApply, Family: "abd", Key: fmt.Sprintf("k%d", i), Config: "c0", Op: 1, Payload: []byte{byte(i)}})
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	records, _, torn, err := readSegment(segPath(dir, "s0", 1))
	if err != nil || torn {
		t.Fatalf("readSegment: torn=%v err=%v", torn, err)
	}
	if len(records) != n {
		t.Fatalf("got %d records, want %d", len(records), n)
	}
	for i, r := range records {
		if r.Key != fmt.Sprintf("k%d", i) || r.Payload[0] != byte(i) {
			t.Fatalf("record %d out of order: %+v", i, r)
		}
	}
}

// TestWALConcurrentAppends pins group commit under contention: every
// concurrent append lands exactly once (order across goroutines is free).
func TestWALConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, "s0", 1, false)
	if err != nil {
		t.Fatal(err)
	}
	const writers, per = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r := Record{Kind: RecordApply, Family: "treas", Key: fmt.Sprintf("g%d-i%d", g, i), Config: "c", Op: 1}
				if err := w.append(appendRecord(nil, &r)); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	records, _, torn, err := readSegment(segPath(dir, "s0", 1))
	if err != nil || torn {
		t.Fatalf("readSegment: torn=%v err=%v", torn, err)
	}
	seen := make(map[string]bool, len(records))
	for _, r := range records {
		if seen[r.Key] {
			t.Fatalf("duplicate record %q", r.Key)
		}
		seen[r.Key] = true
	}
	if len(seen) != writers*per {
		t.Fatalf("got %d unique records, want %d", len(seen), writers*per)
	}
}

func TestWALAppendAfterClose(t *testing.T) {
	w, err := openWAL(t.TempDir(), "s0", 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	r := Record{Kind: RecordApply, Family: "abd", Key: "k", Config: "c"}
	if err := w.append(appendRecord(nil, &r)); !errors.Is(err, errWALClosed) {
		t.Fatalf("got %v, want errWALClosed", err)
	}
	if err := w.close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestWALRotate pins segment rotation: post-rotation appends land in the new
// segment, the old ones are reported for deletion, and listSegments sees
// both in order.
func TestWALRotate(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, "meta", 1, false)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, &Record{Kind: RecordInstall, Payload: []byte("one")})
	old, err := w.rotate()
	if err != nil {
		t.Fatal(err)
	}
	if len(old) != 1 || old[0] != segPath(dir, "meta", 1) {
		t.Fatalf("old segments = %v", old)
	}
	mustAppend(t, w, &Record{Kind: RecordInstall, Payload: []byte("two")})
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	paths, lastSeq, err := listSegments(dir, "meta")
	if err != nil {
		t.Fatal(err)
	}
	if lastSeq != 2 || len(paths) != 2 {
		t.Fatalf("lastSeq=%d paths=%v", lastSeq, paths)
	}
	records, _, _, err := readSegment(segPath(dir, "meta", 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 || string(records[0].Payload) != "two" {
		t.Fatalf("segment 2 records: %+v", records)
	}
}

// TestReadSegmentTornTail pins satellite 3 at the segment level: a segment
// whose final record is truncated mid-frame yields every earlier record, the
// truncation offset, and torn=true — never an error.
func TestReadSegmentTornTail(t *testing.T) {
	dir := t.TempDir()
	var buf []byte
	buf = appendRecord(buf, &Record{Kind: RecordApply, Family: "abd", Key: "a", Config: "c", Op: 1, Payload: []byte("first")})
	buf = appendRecord(buf, &Record{Kind: RecordApply, Family: "abd", Key: "b", Config: "c", Op: 1, Payload: []byte("second")})
	goodLen := len(buf)
	buf = appendRecord(buf, &Record{Kind: RecordApply, Family: "abd", Key: "torn", Config: "c", Op: 1, Payload: []byte("never landed")})
	path := filepath.Join(dir, "s0-1.wal")
	if err := os.WriteFile(path, buf[:goodLen+7], 0o644); err != nil {
		t.Fatal(err)
	}
	records, validLen, torn, err := readSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	if !torn || validLen != int64(goodLen) {
		t.Fatalf("torn=%v validLen=%d, want true/%d", torn, validLen, goodLen)
	}
	if len(records) != 2 || records[1].Key != "b" {
		t.Fatalf("records: %+v", records)
	}
}

// TestReadSegmentBitFlip: corrupting a middle record stops the read there —
// conservative truncation rather than resynchronization.
func TestReadSegmentBitFlip(t *testing.T) {
	dir := t.TempDir()
	var buf []byte
	buf = appendRecord(buf, &Record{Kind: RecordApply, Family: "abd", Key: "a", Config: "c", Op: 1, Payload: []byte("first")})
	firstLen := len(buf)
	buf = appendRecord(buf, &Record{Kind: RecordApply, Family: "abd", Key: "b", Config: "c", Op: 1, Payload: []byte("second")})
	buf[firstLen+9] ^= 0x40 // flip a bit inside the second record's body
	path := filepath.Join(dir, "s0-1.wal")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	records, validLen, torn, err := readSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	if !torn || validLen != int64(firstLen) || len(records) != 1 {
		t.Fatalf("torn=%v validLen=%d records=%d, want true/%d/1", torn, validLen, len(records), firstLen)
	}
}

func TestListSegmentsIgnoresStrangers(t *testing.T) {
	dir := t.TempDir()
	for _, f := range []string{"s0-1.wal", "s0-3.wal", "s1-9.wal", "s0.snap", "s0-x.wal", "notalog"} {
		if err := os.WriteFile(filepath.Join(dir, f), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	paths, lastSeq, err := listSegments(dir, "s0")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{segPath(dir, "s0", 1), segPath(dir, "s0", 3)}
	if lastSeq != 3 || !reflect.DeepEqual(paths, want) {
		t.Fatalf("lastSeq=%d paths=%v, want 3/%v", lastSeq, paths, want)
	}
}
