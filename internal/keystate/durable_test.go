package keystate

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ares-storage/ares/internal/cfg"
)

// fakeMeta is a DurableMeta stand-in: installs are opaque strings, retires
// tombstone (key, config) pairs the fake services consult.
type fakeMeta struct {
	mu       sync.Mutex
	installs []string
	retired  map[string]bool
}

func newFakeMeta() *fakeMeta { return &fakeMeta{retired: make(map[string]bool)} }

func (m *fakeMeta) ReplayInstall(p []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.installs = append(m.installs, string(p))
	return nil
}

func (m *fakeMeta) ReplayRetire(key, config string, _ []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.retired[key+"\x00"+config] = true
	return nil
}

func (m *fakeMeta) isRetired(key, config string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.retired[key+"\x00"+config]
}

func (m *fakeMeta) SnapshotMeta() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return json.Marshal(struct {
		Installs []string
		Retired  []string
	}{m.installs, keys(m.retired)})
}

func (m *fakeMeta) RestoreMeta(blob []byte) error {
	var s struct {
		Installs []string
		Retired  []string
	}
	if err := json.Unmarshal(blob, &s); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.installs = s.Installs
	for _, k := range s.Retired {
		m.retired[k] = true
	}
	return nil
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// fakeSvc is a DurableService whose per-(key, config) state is the ordered
// concatenation of applied payloads — order-sensitive on purpose, so replay
// ordering bugs within a pair show up as state mismatches.
type fakeSvc struct {
	family  string
	meta    *fakeMeta
	mu      sync.Mutex
	state   map[Ref][]byte
	journal *Journal
}

func newFakeSvc(family string, meta *fakeMeta) *fakeSvc {
	return &fakeSvc{family: family, meta: meta, state: make(map[Ref][]byte)}
}

func (s *fakeSvc) DurableFamily() string { return s.family }

func (s *fakeSvc) apply(key, config string, payload []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ref := Ref{Key: key, Config: config}
	s.state[ref] = append(s.state[ref], payload...)
}

// write is the live-handler path: journal, then apply, then release.
func (s *fakeSvc) write(key, config string, payload []byte) error {
	if s.journal != nil {
		release, err := s.journal.Append(key, config, 1, payload)
		if err != nil {
			return err
		}
		defer release()
	}
	s.apply(key, config, payload)
	return nil
}

func (s *fakeSvc) ReplayApply(key, config string, op byte, payload []byte) error {
	if s.meta.isRetired(key, config) {
		return &cfg.RetiredError{Key: key, Config: cfg.ID(config)}
	}
	s.apply(key, config, payload)
	return nil
}

func (s *fakeSvc) SnapshotStates(emit func(key, configID string, blob []byte) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for ref, blob := range s.state {
		if err := emit(ref.Key, string(ref.Config), append([]byte(nil), blob...)); err != nil {
			return err
		}
	}
	return nil
}

func (s *fakeSvc) RestoreState(key, config string, blob []byte) error {
	if s.meta.isRetired(key, config) {
		return &cfg.RetiredError{Key: key, Config: cfg.ID(config)}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.state[Ref{Key: key, Config: config}] = append([]byte(nil), blob...)
	return nil
}

func (s *fakeSvc) SetJournal(j *Journal) { s.journal = j }

func (s *fakeSvc) get(key, config string) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state[Ref{Key: key, Config: config}]
}

func openTestDurability(t *testing.T, dir string, opts ...DurOption) (*Durability, *fakeSvc, *fakeMeta) {
	t.Helper()
	d, err := OpenDurability(dir, append([]DurOption{WithFsync(false)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	meta := newFakeMeta()
	svc := newFakeSvc("fake", meta)
	d.Register(svc)
	d.SetMeta(meta)
	return d, svc, meta
}

func TestDurabilityRecoverEmptyDir(t *testing.T) {
	d, _, _ := openTestDurability(t, t.TempDir())
	stats, err := d.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats != (RecoveryStats{}) {
		t.Fatalf("fresh dir stats: %+v", stats)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurabilityJournalThenRecover pins the tentpole cycle: journaled
// mutations and meta installs survive a close + reopen byte-for-byte.
func TestDurabilityJournalThenRecover(t *testing.T) {
	dir := t.TempDir()
	d, svc, _ := openTestDurability(t, dir)
	if _, err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	release, err := d.AppendInstall([]byte("cfg-c0"))
	if err != nil {
		t.Fatal(err)
	}
	release()
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("k%d", i%7)
		if err := svc.write(key, "c0", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	want := make(map[string][]byte)
	for i := 0; i < 7; i++ {
		key := fmt.Sprintf("k%d", i)
		want[key] = append([]byte(nil), svc.get(key, "c0")...)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, svc2, meta2 := openTestDurability(t, dir)
	stats, err := d2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if stats.Applies != 40 || stats.Installs != 1 {
		t.Fatalf("stats: %+v", stats)
	}
	if len(meta2.installs) != 1 || meta2.installs[0] != "cfg-c0" {
		t.Fatalf("installs: %v", meta2.installs)
	}
	for key, blob := range want {
		if got := svc2.get(key, "c0"); !bytes.Equal(got, blob) {
			t.Fatalf("key %s: got %v want %v", key, got, blob)
		}
	}
}

// TestDurabilityRefusesUnregisteredFamily pins fail-stop recovery: state
// journaled by a service family the reopened process no longer registers
// may hold acknowledged writes, so Recover must refuse it, naming the
// family and the file, rather than count it as skipped and drop it. Both
// the log-tail and the snapshot paths are covered.
func TestDurabilityRefusesUnregisteredFamily(t *testing.T) {
	for _, snapshot := range []bool{false, true} {
		snapshot := snapshot
		t.Run(fmt.Sprintf("snapshot=%v", snapshot), func(t *testing.T) {
			dir := t.TempDir()
			d, _, meta := openTestDurability(t, dir, WithWALStripes(1))
			gone := newFakeSvc("gone", meta)
			d.Register(gone)
			if _, err := d.Recover(); err != nil {
				t.Fatal(err)
			}
			if err := gone.write("k", "c0", []byte("acked")); err != nil {
				t.Fatal(err)
			}
			wantFile := ".wal"
			if snapshot {
				if err := d.Snapshot(); err != nil {
					t.Fatal(err)
				}
				wantFile = ".snap"
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}

			d2, _, _ := openTestDurability(t, dir, WithWALStripes(1))
			stats, err := d2.Recover()
			if err == nil {
				d2.Close()
				t.Fatalf("recovery dropped a %q record (stats %+v)", "gone", stats)
			}
			if !strings.Contains(err.Error(), `"gone"`) || !strings.Contains(err.Error(), wantFile) {
				t.Fatalf("error %q does not name the family and its %s file", err, wantFile)
			}
		})
	}
}

// refusingMeta is a fakeMeta whose install or retire replay fails, as a
// record that passed its CRC but does not decode would.
type refusingMeta struct {
	*fakeMeta
	refuse byte
}

func (m refusingMeta) ReplayInstall(p []byte) error {
	if m.refuse == RecordInstall {
		return errors.New("undecodable install")
	}
	return m.fakeMeta.ReplayInstall(p)
}

func (m refusingMeta) ReplayRetire(key, config string, p []byte) error {
	if m.refuse == RecordRetire {
		return errors.New("undecodable retire")
	}
	return m.fakeMeta.ReplayRetire(key, config, p)
}

// TestDurabilityRefusesUnreplayableMeta pins fail-stop recovery on the meta
// log: an install or retire record the meta hooks cannot replay fails
// Recover, naming the meta segment, instead of being counted as skipped —
// a dropped install would silently skip every stripe record under that
// configuration.
func TestDurabilityRefusesUnreplayableMeta(t *testing.T) {
	for _, kind := range []byte{RecordInstall, RecordRetire} {
		kind := kind
		t.Run(fmt.Sprintf("kind=%d", kind), func(t *testing.T) {
			dir := t.TempDir()
			d, svc, _ := openTestDurability(t, dir)
			if _, err := d.Recover(); err != nil {
				t.Fatal(err)
			}
			release, err := d.AppendInstall([]byte("cfg-c0"))
			if err != nil {
				t.Fatal(err)
			}
			release()
			if err := svc.write("k", "c0", []byte("acked")); err != nil {
				t.Fatal(err)
			}
			if err := d.AppendRetire("k", "c0", []byte("c1")); err != nil {
				t.Fatal(err)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}

			d2, err := OpenDurability(dir, WithFsync(false))
			if err != nil {
				t.Fatal(err)
			}
			meta := newFakeMeta()
			d2.Register(newFakeSvc("fake", meta))
			d2.SetMeta(refusingMeta{fakeMeta: meta, refuse: kind})
			stats, err := d2.Recover()
			if err == nil {
				d2.Close()
				t.Fatalf("recovery skipped an unreplayable meta record (stats %+v)", stats)
			}
			if !strings.Contains(err.Error(), filepath.Join(dir, "meta-")) || !strings.Contains(err.Error(), "undecodable") {
				t.Fatalf("error %q does not name the meta segment and the cause", err)
			}
		})
	}
}

// TestDurabilitySnapshotCompacts pins snapshot + truncation: after Snapshot,
// pre-rotation segments are gone, and recovery restores snapshot state plus
// the post-snapshot log tail.
func TestDurabilitySnapshotCompacts(t *testing.T) {
	dir := t.TempDir()
	d, svc, _ := openTestDurability(t, dir)
	if _, err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := svc.write("snapkey", "c0", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := filepath.Glob(filepath.Join(dir, "*-1.wal"))
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for _, p := range before {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("pre-snapshot segment %s survived compaction", p)
		}
	}
	for i := 20; i < 25; i++ {
		if err := svc.write("snapkey", "c0", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	want := append([]byte(nil), svc.get("snapkey", "c0")...)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, svc2, _ := openTestDurability(t, dir)
	stats, err := d2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if stats.SnapshotStates != 1 || stats.Applies != 5 {
		t.Fatalf("stats: %+v", stats)
	}
	if got := svc2.get("snapkey", "c0"); !bytes.Equal(got, want) {
		t.Fatalf("state after snapshot+tail recovery: got %v want %v", got, want)
	}
}

// TestDurabilityTornTailTruncated pins satellite 3 end-to-end against real
// log files: recovery after a crash mid-append truncates the torn record,
// keeps every earlier one, and the truncated file appends cleanly afterward.
func TestDurabilityTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	d, svc, _ := openTestDurability(t, dir, WithWALStripes(1))
	if _, err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := svc.write("torn", "c0", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: chop 3 bytes off the stripe segment.
	seg := segPath(dir, "s0", 1)
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	d2, svc2, _ := openTestDurability(t, dir, WithWALStripes(1))
	stats, err := d2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Applies != 9 || stats.TornSegments != 1 || stats.TornBytes == 0 {
		t.Fatalf("stats: %+v", stats)
	}
	if got := svc2.get("torn", "c0"); !bytes.Equal(got, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Fatalf("state: %v", got)
	}
	// The truncated segment must accept appends again.
	if err := svc2.write("torn", "c0", []byte{99}); err != nil {
		t.Fatal(err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}

	d3, svc3, _ := openTestDurability(t, dir, WithWALStripes(1))
	if _, err := d3.Recover(); err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if got := svc3.get("torn", "c0"); !bytes.Equal(got, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 99}) {
		t.Fatalf("state after re-append: %v", got)
	}
}

// TestDurabilityBitFlipTruncated: a flipped bit mid-segment truncates there
// (conservative: everything after the corruption is discarded) and startup
// still succeeds.
func TestDurabilityBitFlipTruncated(t *testing.T) {
	dir := t.TempDir()
	d, svc, _ := openTestDurability(t, dir, WithWALStripes(1))
	if _, err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := svc.write("flip", "c0", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	seg := segPath(dir, "s0", 1)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	d2, svc2, _ := openTestDurability(t, dir, WithWALStripes(1))
	stats, err := d2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if stats.TornSegments != 1 || stats.Applies >= 10 {
		t.Fatalf("stats: %+v", stats)
	}
	got := svc2.get("flip", "c0")
	if len(got) >= 10 {
		t.Fatalf("corrupt tail replayed: %v", got)
	}
	for i, b := range got {
		if b != byte(i) {
			t.Fatalf("prefix mismatch at %d: %v", i, got)
		}
	}
}

// TestDurabilityRetireSkipsReplay pins the PR 5 lifecycle wiring: a retired
// (key, config) pair's journaled mutations are skipped on recovery, and the
// retire itself replays from the meta log.
func TestDurabilityRetireSkipsReplay(t *testing.T) {
	dir := t.TempDir()
	d, svc, _ := openTestDurability(t, dir)
	if _, err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := svc.write("gone", "c0", []byte("dead")); err != nil {
		t.Fatal(err)
	}
	if err := svc.write("kept", "c0", []byte("live")); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendRetire("gone", "c0", []byte("successor-entry")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, svc2, meta2 := openTestDurability(t, dir)
	stats, err := d2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if stats.Retires != 1 || stats.Applies != 1 || stats.Skipped != 1 {
		t.Fatalf("stats: %+v", stats)
	}
	if !meta2.isRetired("gone", "c0") {
		t.Fatal("retire not replayed")
	}
	if got := svc2.get("gone", "c0"); got != nil {
		t.Fatalf("retired state resurrected: %v", got)
	}
	if got := svc2.get("kept", "c0"); !bytes.Equal(got, []byte("live")) {
		t.Fatalf("live state: %v", got)
	}
}

// TestDurabilityRetireTriggersCompaction pins the retirement→truncation
// wiring: enough retires kick a background snapshot that drops the retired
// pair's records from disk entirely.
func TestDurabilityRetireTriggersCompaction(t *testing.T) {
	dir := t.TempDir()
	d, svc, meta := openTestDurability(t, dir, WithWALStripes(1), WithCompactAfterRetires(1))
	if _, err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	d.Start()
	if err := svc.write("gc-me", "c0", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	// Live retire flow: journal the retire record, then mutate the
	// in-memory meta (what the resolver's Retire does), both inside the
	// write-config handler's journal span in the real system.
	if err := d.AppendRetire("gc-me", "c0", nil); err != nil {
		t.Fatal(err)
	}
	if err := meta.ReplayRetire("gc-me", "c0", nil); err != nil {
		t.Fatal(err)
	}
	// The kick is asynchronous; a direct Snapshot is deterministic and
	// exercises the same path.
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// No file on disk may still contain the retired payload.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(data, []byte("payload")) && !strings.HasSuffix(e.Name(), ".snap") {
			t.Fatalf("%s still holds the retired record", e.Name())
		}
	}
	// And recovery must not resurrect it: the snapshot skips retired state.
	d2, svc2, _ := openTestDurability(t, dir, WithWALStripes(1))
	if _, err := d2.Recover(); err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := svc2.get("gc-me", "c0"); got != nil {
		t.Fatalf("retired state resurrected from snapshot: %v", got)
	}
}

// TestDurabilityCountsBackgroundSnapshotFailures pins that a failed
// retirement-triggered snapshot is counted, not dropped, and that the failed
// rotation leaves every log appendable and closable.
func TestDurabilityCountsBackgroundSnapshotFailures(t *testing.T) {
	dir := t.TempDir()
	d, _, _ := openTestDurability(t, dir, WithWALStripes(1), WithCompactAfterRetires(1))
	if _, err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	d.Start()
	// With the directory gone, the snapshot's rotation cannot open the next
	// segment; the open segments stay writable through their descriptors.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	before := walSnapshotFailures.Load()
	if err := d.AppendRetire("k", "c0", nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for walSnapshotFailures.Load()-before < 1 {
		if time.Now().After(deadline) {
			t.Fatal("background snapshot failure was not counted")
		}
		time.Sleep(time.Millisecond)
	}
	if got := walSnapshotFailures.Load() - before; got != 1 {
		t.Fatalf("ares_wal_snapshot_failures_total delta = %d, want 1", got)
	}
	release, err := d.AppendInstall([]byte("cfg-c1"))
	if err != nil {
		t.Fatalf("append after a failed rotation: %v", err)
	}
	release()
	if err := d.Close(); err != nil {
		t.Fatalf("close after a failed rotation: %v", err)
	}
}

// TestDurabilityConcurrentWritesAndSnapshots races live journaled writes
// against repeated snapshots; run with -race. Every acknowledged write must
// survive recovery regardless of where snapshots cut the logs.
func TestDurabilityConcurrentWritesAndSnapshots(t *testing.T) {
	dir := t.TempDir()
	d, svc, _ := openTestDurability(t, dir, WithWALStripes(4))
	if _, err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	const writers, per = 4, 30
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := svc.write(fmt.Sprintf("w%d", g), "c0", []byte{byte(i)}); err != nil {
					t.Errorf("write: %v", err)
					return
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			if err := d.Snapshot(); err != nil {
				t.Errorf("snapshot: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, svc2, _ := openTestDurability(t, dir, WithWALStripes(4))
	if _, err := d2.Recover(); err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	for g := 0; g < writers; g++ {
		got := svc2.get(fmt.Sprintf("w%d", g), "c0")
		if len(got) != per {
			t.Fatalf("writer %d: recovered %d/%d bytes: %v", g, len(got), per, got)
		}
		for i, b := range got {
			if b != byte(i) {
				t.Fatalf("writer %d: order broken at %d: %v", g, i, got)
			}
		}
	}
}
