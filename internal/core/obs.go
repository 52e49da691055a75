package core

import "github.com/ares-storage/ares/internal/obs"

// Client-side operation instruments. The read and write counter names are
// scraped by the bench harness; fastread_test.go pins the read ones.
var (
	clientReads = obs.Default.Counter("ares_client_read_ops_total",
		"Completed core.Client reads")
	clientReadRounds = obs.Default.Counter("ares_client_read_rounds_total",
		"Data rounds taken by completed reads")
	clientReadFastPaths = obs.Default.Counter("ares_client_read_fastpaths_total",
		"Reads that skipped the put-data write-back")
	clientWrites = obs.Default.Counter("ares_client_write_ops_total",
		"Completed core.Client writes")
	clientWriteRounds = obs.Default.Counter("ares_client_write_rounds_total",
		"Data rounds taken by completed writes (get-tag plus put-data)")
	clientRetries = obs.Default.Counter("ares_client_retries_total",
		"get-data attempts retried after quorum failures")
	clientBackoffs = obs.Default.Counter("ares_client_backoff_events_total",
		"Paced retry delays slept before a get-data re-attempt")
)

// registerHostGauges points the host-level state gauges at h. A process
// that hosts several nodes (tests, simnet) re-registers per host; the
// most recent host wins the name, which is exact for the one-host
// ares-server process /metrics serves.
func registerHostGauges(h *Host) {
	obs.Default.GaugeFunc("ares_host_materialized_states",
		"Live (key, config) state entries across keyed services",
		func() int64 { return int64(h.MaterializedStates()) })
	obs.Default.GaugeFunc("ares_host_retired_states",
		"(key, config) state entries retired by lifecycle GC",
		h.RetiredStates)
	obs.Default.GaugeFunc("ares_host_service_instances",
		"Registered service instances on this host",
		func() int64 { return int64(h.ServiceInstances()) })
	obs.Default.GaugeFunc("ares_host_retired_configs",
		"Configurations holding tombstone redirects",
		func() int64 { return int64(h.RetiredConfigs()) })
}
