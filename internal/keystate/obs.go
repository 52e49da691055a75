package keystate

import "github.com/ares-storage/ares/internal/obs"

// Process-wide durability instruments. A test process hosts several
// Durability instances at once, so RecoveryStats remains the per-host
// record of a recovery pass; these registry instruments aggregate across
// every instance for /metrics.
var (
	walAppends = obs.Default.Counter("ares_wal_appends_total",
		"Records appended to any WAL")
	walAppendedBytes = obs.Default.Counter("ares_wal_appended_bytes_total",
		"Framed bytes appended to any WAL")
	walCommits = obs.Default.Counter("ares_wal_commits_total",
		"Group-commit bursts written")
	walFsyncs = obs.Default.Counter("ares_wal_fsyncs_total",
		"fsync barriers issued against WAL and snapshot files")
	walAppendSeconds = obs.Default.Histogram("ares_wal_append_seconds",
		"WAL append latency, enqueue to durable acknowledgment", nil)
	walFsyncSeconds = obs.Default.Histogram("ares_wal_fsync_seconds",
		"fsync barrier latency", nil)
	walSnapshots = obs.Default.Counter("ares_wal_snapshots_total",
		"Snapshots taken")
	walSnapshotSeconds = obs.Default.Histogram("ares_wal_snapshot_seconds",
		"Snapshot write + rotate latency", nil)
	walSnapshotFailures = obs.Default.Counter("ares_wal_snapshot_failures_total",
		"Background snapshots that failed (the logs they would have compacted stay)")
	recoveries = obs.Default.Counter("ares_recovery_runs_total",
		"Recover calls completed")
	recoveredApplies = obs.Default.Counter("ares_recovery_applies_total",
		"Journaled mutations replayed during recovery")
	recoveredTornBytes = obs.Default.Counter("ares_recovery_torn_bytes_total",
		"Torn-tail bytes truncated during recovery")
)
