package keystate

// Durability is the disk layer under a host's keyed services: a striped WAL
// plus compacting snapshots, with recovery replaying snapshot + log tail before
// the node serves its first envelope.
//
// Ordering model. Mutations journal BEFORE they apply and acknowledge
// (write-ahead), so an acknowledged write is always on disk. Per-stripe logs
// drop the global order across stripes, which is safe because every keyed
// mutation in this system is tag-monotone or idempotent — replaying two
// stripes in either order converges to the same state. The two events that
// DO order other records — configuration installs (a stripe record is only
// replayable once its configuration resolves) and retirements (which
// register the finalized successor) — go to a dedicated meta log that
// recovery replays first, in order.
//
// Snapshot/log interaction. A snapshot rotates every log to a fresh segment
// (under a brief writer gate so no journal→apply span straddles the
// rotation), captures service state, writes the snapshot files atomically,
// and only then deletes the pre-rotation segments. Records appended after
// rotation land in retained segments and replay over the snapshot —
// idempotently — so there is no generation bookkeeping. Retirement wires the
// PR 5 configuration lifecycle into log truncation: each retire record bumps
// a counter that triggers compaction, and the next snapshot simply does not
// contain the retired (key, config) state, so its records vanish with the
// deleted segments.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ares-storage/ares/internal/cfg"
)

// DurableService is the persistence contract a keyed service implements:
// replay a journaled mutation, emit/restore per-(key, config) state blobs,
// and accept the journal handle it writes live mutations through.
type DurableService interface {
	// DurableFamily names the service in records (its ServiceName).
	DurableFamily() string
	// ReplayApply re-applies one journaled mutation during recovery. It must
	// be side-effect free beyond the state mutation (no forwarding, no
	// gossip) and tolerant of re-application.
	ReplayApply(key, configID string, op byte, payload []byte) error
	// SnapshotStates emits every live (key, config) state as a blob.
	SnapshotStates(emit func(key, configID string, blob []byte) error) error
	// RestoreState reinstates one snapshotted state blob during recovery.
	RestoreState(key, configID string, blob []byte) error
	// SetJournal attaches the live journal; called once recovery completes,
	// so replay never re-journals.
	SetJournal(j *Journal)
}

// DurableMeta is the persistence contract of the host's configuration state
// (the resolver): installs and retirements replay from the meta log, and the
// whole resolver state snapshots as one opaque blob.
type DurableMeta interface {
	ReplayInstall(payload []byte) error
	ReplayRetire(key, configID string, payload []byte) error
	SnapshotMeta() ([]byte, error)
	RestoreMeta(blob []byte) error
}

// RecoveryStats summarizes one recovery pass.
type RecoveryStats struct {
	SnapshotStates int   // state blobs restored from stripe snapshots
	Installs       int   // configuration installs replayed
	Retires        int   // retirements replayed
	Applies        int   // mutations replayed
	Skipped        int   // records skipped (retired or unknown configurations)
	TornSegments   int   // segments truncated at a corrupt or torn record
	TornBytes      int64 // bytes discarded by those truncations
}

type durOptions struct {
	fsync          bool
	stripes        int
	compactRetires int64
}

// DurOption tunes OpenDurability.
type DurOption func(*durOptions)

// WithFsync toggles fsync-per-group-commit (default on). Off, appends still
// reach the OS before acknowledging — surviving process crashes but not
// machine crashes — which is the bench's throughput baseline.
func WithFsync(on bool) DurOption { return func(o *durOptions) { o.fsync = on } }

// WithWALStripes sets the WAL stripe count (default 8, rounded up to a power
// of two). More stripes mean more group-commit writers and fewer keys per
// fsync batch.
func WithWALStripes(n int) DurOption { return func(o *durOptions) { o.stripes = n } }

// WithCompactAfterRetires sets how many retirement records accumulate before
// a compacting snapshot is triggered (default 64; <= 0 disables).
func WithCompactAfterRetires(n int) DurOption {
	return func(o *durOptions) { o.compactRetires = int64(n) }
}

// Durability owns one host's WAL stripes, snapshots, and recovery.
type Durability struct {
	dir  string
	opts durOptions

	services []DurableService
	byFamily map[string]DurableService
	meta     DurableMeta

	metaLog    *wal
	stripeLogs []*wal
	stripeMask uint32

	// gate serializes journal→apply spans against snapshot rotation: every
	// Journal.Append / AppendInstall holds the read side until its mutation
	// applied, so a rotation (write side) never strands a journaled-but-
	// unapplied record in a segment the snapshot is about to delete.
	gate sync.RWMutex

	snapMu    sync.Mutex // one snapshot at a time
	recovered bool
	closed    atomic.Bool
	started   atomic.Bool

	retiresSinceSnap atomic.Int64
	kick             chan struct{}
	quit             chan struct{}
	wg               sync.WaitGroup

	stats RecoveryStats
}

// OpenDurability opens (creating if needed) the durability directory for one
// host. Register every service and SetMeta before calling Recover.
func OpenDurability(dir string, opts ...DurOption) (*Durability, error) {
	o := durOptions{
		fsync:          true,
		stripes:        8,
		compactRetires: 64,
	}
	for _, opt := range opts {
		opt(&o)
	}
	size := 1
	for size < o.stripes {
		size <<= 1
	}
	o.stripes = size
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("keystate: durability dir: %w", err)
	}
	return &Durability{
		dir:        dir,
		opts:       o,
		byFamily:   make(map[string]DurableService),
		stripeMask: uint32(size - 1),
		kick:       make(chan struct{}, 1),
		quit:       make(chan struct{}),
	}, nil
}

// Register adds a service to the durability set (before Recover).
func (d *Durability) Register(svc DurableService) {
	d.services = append(d.services, svc)
	d.byFamily[svc.DurableFamily()] = svc
}

// SetMeta attaches the host's configuration-state hooks (before Recover).
func (d *Durability) SetMeta(m DurableMeta) { d.meta = m }

func (d *Durability) stripeName(i int) string { return fmt.Sprintf("s%d", i) }

func (d *Durability) stripeOf(key, config string) int {
	return int(Hash(key, config) & d.stripeMask)
}

// unregisteredFamily is the replay error for a stripe record whose family
// no registered service owns (e.g. a data directory written by a build with
// a service this one lacks).
func unregisteredFamily(family string) error {
	return fmt.Errorf("record of family %q, which no registered service owns", family)
}

// replaySkippable reports a replay error caused by the record's (key,
// config) pair having been garbage-collected or its configuration never
// resurfacing — expected for records that predate a retirement whose
// compaction hadn't run yet, and harmless: retired state is gone by design.
func replaySkippable(err error) bool {
	return cfg.IsRetired(err) || errors.Is(err, cfg.ErrUnknownConfig)
}

// replayLog reads every segment of one log in order, truncating torn tails,
// and hands the records to fn.
func (d *Durability) replayLog(name string, fn func(r Record) error) (lastSeq int, err error) {
	paths, lastSeq, err := listSegments(d.dir, name)
	if err != nil {
		return 0, err
	}
	for _, p := range paths {
		records, validLen, torn, err := readSegment(p)
		if err != nil {
			return 0, fmt.Errorf("keystate: reading %s: %w", p, err)
		}
		if torn {
			info, statErr := os.Stat(p)
			if statErr != nil {
				return 0, statErr
			}
			d.stats.TornSegments++
			d.stats.TornBytes += info.Size() - validLen
			if err := os.Truncate(p, validLen); err != nil {
				return 0, fmt.Errorf("keystate: truncating %s: %w", p, err)
			}
		}
		for i := range records {
			if err := fn(records[i]); err != nil {
				return 0, fmt.Errorf("keystate: replaying %s: %w", p, err)
			}
		}
	}
	if lastSeq < 1 {
		lastSeq = 1
	}
	return lastSeq, nil
}

// Recover replays meta snapshot + meta log, then stripe snapshots + stripe
// logs, opens the logs for appending, and attaches journals to every
// registered service. It must complete before the node answers its first
// envelope. Safe on an empty directory (fresh start). A stripe record whose
// family no registered service owns fails recovery, naming the family and
// the file that holds it.
func (d *Durability) Recover() (RecoveryStats, error) {
	if d.recovered {
		return d.stats, errors.New("keystate: already recovered")
	}
	if d.meta == nil {
		return d.stats, errors.New("keystate: no meta hooks registered")
	}
	// 1. Meta state first: stripe records only replay once their
	// configurations resolve, and retire replay both tombstones pairs and
	// re-registers finalized successors.
	if err := readSnapshot(filepath.Join(d.dir, "meta.snap"), func(r Record) error {
		if r.Kind != RecordMeta {
			return nil
		}
		return d.meta.RestoreMeta(r.Payload)
	}); err != nil {
		return d.stats, err
	}
	metaSeq, err := d.replayLog("meta", func(r Record) error {
		switch r.Kind {
		case RecordInstall:
			if err := d.meta.ReplayInstall(r.Payload); err != nil {
				d.stats.Skipped++
				return nil
			}
			d.stats.Installs++
		case RecordRetire:
			if err := d.meta.ReplayRetire(r.Key, r.Config, r.Payload); err != nil {
				d.stats.Skipped++
				return nil
			}
			d.stats.Retires++
		}
		return nil
	})
	if err != nil {
		return d.stats, err
	}

	// 2. Stripe snapshots, then stripe log tails. Records whose pair was
	// retired (or whose configuration never resurfaced) are skipped: the
	// lifecycle GC already proved that state quiescent and superseded.
	// A record no registered service owns fails recovery instead: it may
	// hold acknowledged writes, and dropping it would lose them silently.
	stripeSeqs := make([]int, d.opts.stripes)
	for i := 0; i < d.opts.stripes; i++ {
		name := d.stripeName(i)
		if err := readSnapshot(filepath.Join(d.dir, name+".snap"), func(r Record) error {
			if r.Kind != RecordState {
				return nil
			}
			svc, ok := d.byFamily[r.Family]
			if !ok {
				return unregisteredFamily(r.Family)
			}
			if err := svc.RestoreState(r.Key, r.Config, r.Payload); err != nil {
				if replaySkippable(err) {
					d.stats.Skipped++
					return nil
				}
				return err
			}
			d.stats.SnapshotStates++
			return nil
		}); err != nil {
			return d.stats, err
		}
		stripeSeqs[i], err = d.replayLog(name, func(r Record) error {
			if r.Kind != RecordApply {
				return nil
			}
			svc, ok := d.byFamily[r.Family]
			if !ok {
				return unregisteredFamily(r.Family)
			}
			if err := svc.ReplayApply(r.Key, r.Config, r.Op, r.Payload); err != nil {
				if replaySkippable(err) {
					d.stats.Skipped++
					return nil
				}
				return err
			}
			d.stats.Applies++
			return nil
		})
		if err != nil {
			return d.stats, err
		}
	}

	// 3. Open the logs for appending (continuing the highest segment, whose
	// torn tail — if any — was just truncated) and go live.
	d.metaLog, err = openWAL(d.dir, "meta", metaSeq, d.opts.fsync)
	if err != nil {
		return d.stats, err
	}
	d.stripeLogs = make([]*wal, d.opts.stripes)
	for i := 0; i < d.opts.stripes; i++ {
		d.stripeLogs[i], err = openWAL(d.dir, d.stripeName(i), stripeSeqs[i], d.opts.fsync)
		if err != nil {
			return d.stats, err
		}
	}
	d.recovered = true
	for _, svc := range d.services {
		svc.SetJournal(&Journal{d: d, family: svc.DurableFamily()})
	}
	recoveries.Inc()
	recoveredApplies.Add(int64(d.stats.Applies))
	recoveredTornBytes.Add(d.stats.TornBytes)
	return d.stats, nil
}

// Stats returns the recovery statistics.
func (d *Durability) Stats() RecoveryStats { return d.stats }

// Dir returns the durability directory.
func (d *Durability) Dir() string { return d.dir }

// Journal is a service's handle for journaling live mutations, bound to its
// family.
type Journal struct {
	d      *Durability
	family string
}

// Append journals one mutation and blocks until it is written (and, with
// fsync on, durable). It returns a release closure the caller MUST invoke
// after applying the mutation in memory: the (journal, apply) span is what
// keeps snapshot rotation from deleting a record whose effect no snapshot
// captured. On error no span is held and release is nil.
func (j *Journal) Append(key, config string, op byte, payload []byte) (release func(), err error) {
	d := j.d
	d.gate.RLock()
	if d.closed.Load() {
		d.gate.RUnlock()
		return nil, errWALClosed
	}
	frame := appendRecord(nil, &Record{
		Kind: RecordApply, Family: j.family, Key: key, Config: config, Op: op, Payload: payload,
	})
	if err := d.stripeLogs[d.stripeOf(key, config)].append(frame); err != nil {
		d.gate.RUnlock()
		return nil, err
	}
	return d.gate.RUnlock, nil
}

// AppendInstall journals a configuration install into the meta log; same
// release contract as Journal.Append (apply the install, then release).
func (d *Durability) AppendInstall(payload []byte) (release func(), err error) {
	d.gate.RLock()
	if d.closed.Load() {
		d.gate.RUnlock()
		return nil, errWALClosed
	}
	frame := appendRecord(nil, &Record{Kind: RecordInstall, Payload: payload})
	if err := d.metaLog.append(frame); err != nil {
		d.gate.RUnlock()
		return nil, err
	}
	return d.gate.RUnlock, nil
}

// AppendRetire journals a (key, config) retirement carrying the finalized
// successor. It deliberately takes no gate span: retirement runs nested
// inside a write-config handler's journal span (or single-threaded during
// recovery), and double-entering the gate there could deadlock against a
// pending snapshot rotation. Each retire record advances the compaction
// counter — the PR 5 lifecycle is what truncates the log.
func (d *Durability) AppendRetire(key, config string, payload []byte) error {
	if d.closed.Load() {
		return errWALClosed
	}
	frame := appendRecord(nil, &Record{Kind: RecordRetire, Key: key, Config: config, Payload: payload})
	if err := d.metaLog.append(frame); err != nil {
		return err
	}
	if n := d.opts.compactRetires; n > 0 && d.retiresSinceSnap.Add(1) >= n {
		select {
		case d.kick <- struct{}{}:
		default:
		}
	}
	return nil
}

// Snapshot writes a full snapshot (meta + every stripe) and deletes the log
// segments it compacted. Concurrent mutations are safe: rotation happens
// under the writer gate, and anything journaled after rotation replays over
// the snapshot idempotently.
func (d *Durability) Snapshot() error {
	d.snapMu.Lock()
	defer d.snapMu.Unlock()
	if !d.recovered || d.closed.Load() {
		return errWALClosed
	}
	walSnapshots.Inc()
	defer walSnapshotSeconds.ObserveSince(time.Now())

	// Rotate every log to a fresh segment with no journal→apply span in
	// flight.
	d.gate.Lock()
	var oldSegments []string
	logs := append([]*wal{d.metaLog}, d.stripeLogs...)
	for _, w := range logs {
		old, err := w.rotate()
		if err != nil {
			d.gate.Unlock()
			return err
		}
		oldSegments = append(oldSegments, old...)
	}
	d.gate.Unlock()

	// Capture meta state.
	blob, err := d.meta.SnapshotMeta()
	if err != nil {
		return err
	}
	mw, err := newSnapshotWriter(filepath.Join(d.dir, "meta.snap"))
	if err != nil {
		return err
	}
	mw.add(&Record{Kind: RecordMeta, Payload: blob})
	if err := mw.finish(); err != nil {
		return err
	}

	// Capture service states, streamed into per-stripe snapshot writers.
	sws := make([]*snapshotWriter, d.opts.stripes)
	for i := range sws {
		sws[i], err = newSnapshotWriter(filepath.Join(d.dir, d.stripeName(i)+".snap"))
		if err != nil {
			for _, sw := range sws[:i] {
				sw.abort()
			}
			return err
		}
	}
	for _, svc := range d.services {
		family := svc.DurableFamily()
		err = svc.SnapshotStates(func(key, configID string, blob []byte) error {
			sw := sws[d.stripeOf(key, configID)]
			sw.add(&Record{Kind: RecordState, Family: family, Key: key, Config: configID, Payload: blob})
			return sw.err
		})
		if err != nil {
			break
		}
	}
	if err != nil {
		for _, sw := range sws {
			sw.abort()
		}
		return err
	}
	for _, sw := range sws {
		if err := sw.finish(); err != nil {
			return err
		}
	}

	// The snapshot is durable: the pre-rotation segments are dead weight.
	for _, p := range oldSegments {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	d.retiresSinceSnap.Store(0)
	return nil
}

// Start launches the background snapshot scheduler: retirement-triggered
// compaction. Call after recovery (and after any post-recovery fixups) so a
// snapshot never races the single-threaded startup path. A failed
// background snapshot leaves the logs intact (segments are deleted only
// after the snapshot is durable) and counts into
// ares_wal_snapshot_failures_total.
func (d *Durability) Start() {
	if !d.recovered || d.started.Swap(true) {
		return
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		for {
			select {
			case <-d.quit:
				return
			case <-d.kick:
			}
			if err := d.Snapshot(); err != nil && !errors.Is(err, errWALClosed) {
				walSnapshotFailures.Inc()
			}
		}
	}()
}

// Close stops the scheduler and closes every log, flushing queued appends.
// Further appends fail. Close is idempotent.
func (d *Durability) Close() error {
	if d.closed.Swap(true) {
		return nil
	}
	close(d.quit)
	d.wg.Wait()
	var err error
	if d.recovered {
		for _, w := range append([]*wal{d.metaLog}, d.stripeLogs...) {
			if cerr := w.close(); err == nil {
				err = cerr
			}
		}
	}
	return err
}
