package keystate

import (
	"fmt"
	"sync"
	"testing"
)

// TestWALGroupCommitSharesFsyncs pins inline group commit on one fsync-on
// stripe: under concurrent appenders every record lands exactly once, each
// burst costs at most one fsync, and bursts do group — fewer commits than
// appends.
func TestWALGroupCommitSharesFsyncs(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, "s0", 1, true)
	if err != nil {
		t.Fatal(err)
	}
	appends0, commits0, fsyncs0 := walAppends.Load(), walCommits.Load(), walFsyncs.Load()

	const writers, per = 16, 25
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r := Record{Kind: RecordApply, Family: "abd", Key: fmt.Sprintf("g%d-i%d", g, i), Config: "c", Op: 1}
				if err := w.append(appendRecord(nil, &r)); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// Read before close, whose own final barrier is not a burst's.
	appends := walAppends.Load() - appends0
	commits := walCommits.Load() - commits0
	fsyncs := walFsyncs.Load() - fsyncs0
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	if appends != writers*per {
		t.Fatalf("appends delta = %d, want %d", appends, writers*per)
	}
	if fsyncs == 0 || fsyncs > commits || commits >= appends {
		t.Fatalf("fsyncs=%d commits=%d appends=%d: want 0 < fsyncs ≤ commits < appends", fsyncs, commits, appends)
	}

	records, _, torn, err := readSegment(segPath(dir, "s0", 1))
	if err != nil || torn {
		t.Fatalf("torn=%v err=%v", torn, err)
	}
	seen := make(map[string]bool)
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

// TestDurabilityFsyncConcurrentRecover runs the full journal → snapshot →
// recover cycle with fsync on (the production default) under concurrent
// writers: nothing acknowledged may be missing after reopen, and the mid-run
// snapshot's rotation must not strand a burst written but not yet synced.
func TestDurabilityFsyncConcurrentRecover(t *testing.T) {
	dir := t.TempDir()
	d, svc, _ := openTestDurability(t, dir, WithFsync(true))
	if _, err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	release, err := d.AppendInstall([]byte("cfg-c0"))
	if err != nil {
		t.Fatal(err)
	}
	release()

	const writers, per = 6, 20
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := svc.write(fmt.Sprintf("g%d-k%d", g, i), "c0", []byte{byte(g), byte(i)}); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				if g == 0 && i == per/2 {
					if err := d.Snapshot(); err != nil {
						t.Errorf("snapshot: %v", err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, svc2, _ := openTestDurability(t, dir, WithFsync(true))
	if _, err := d2.Recover(); err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	// A record journaled after the rotation but captured by the snapshot
	// legitimately replays over it, so the non-idempotent fake may see its
	// payload twice — what recovery must never produce is a missing or
	// corrupted payload.
	for g := 0; g < writers; g++ {
		for i := 0; i < per; i++ {
			key := fmt.Sprintf("g%d-k%d", g, i)
			got := svc2.get(key, "c0")
			if len(got) == 0 || len(got)%2 != 0 {
				t.Fatalf("key %s: got %v", key, got)
			}
			for off := 0; off < len(got); off += 2 {
				if got[off] != byte(g) || got[off+1] != byte(i) {
					t.Fatalf("key %s: corrupt payload %v", key, got)
				}
			}
		}
	}
}
