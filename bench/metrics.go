package main

import (
	"math"
	"sort"
)

// metricDef declares one metric the benchmark emits. The tables below are
// the single source of names and units inside the harness; BENCHMARK.json
// repeats them for the driver and TestBenchmarkJSONAgrees keeps the two in
// step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the costs a caller of the store feels. Every one is reported
// on every workload by an untraced run (-trace 0) and is never zero.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"get_p50_ms", "ms", "lower", 0.25},
	{"put_p50_ms", "ms", "lower", 0.25},
	{"op_p99_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"net_bytes_per_op", "B", "lower", 0.05},
	{"rss_mb", "MiB", "lower", 0.10},
}

// perLayer attribute the end-to-end numbers to this repo's packages. They
// come from a traced run (-trace 1), carry no bound, and read 0 on a
// workload that bypasses the layer.
var perLayer = []metricDef{
	{Name: "core.rounds_per_get", Unit: "count", Better: "lower"},
	{Name: "core.rounds_per_put", Unit: "count", Better: "lower"},
	{Name: "core.meta_rounds_per_op", Unit: "count", Better: "lower"},
	{Name: "core.fastpath_share", Unit: "ratio", Better: "higher"},
	{Name: "core.retries_per_op", Unit: "count", Better: "lower"},
	{Name: "core.get_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "core.put_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "core.client_self_us_per_get", Unit: "us", Better: "lower"},
	{Name: "core.client_self_us_per_put", Unit: "us", Better: "lower"},
	{Name: "core.client_cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "core.client_allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "recon.read_config_us_p50", Unit: "us", Better: "lower"},
	{Name: "recon.configs_traversed_per_op", Unit: "count", Better: "lower"},
	{Name: "recon.write_config_us_p50", Unit: "us", Better: "lower"},
	{Name: "recon.update_config_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "recon.reconfig_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "recon.reconfig_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "recon.schedule_lag_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "recon.reconfigs_completed", Unit: "count", Better: "higher"},
	{Name: "consensus.decide_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "consensus.rounds_per_decision", Unit: "count", Better: "lower"},
	{Name: "dap.get_tag_us_p50", Unit: "us", Better: "lower"},
	{Name: "dap.get_data_us_p50", Unit: "us", Better: "lower"},
	{Name: "dap.put_data_us_p50", Unit: "us", Better: "lower"},
	{Name: "treas.query_list_reply_bytes_p50", Unit: "B", Better: "lower"},
	{Name: "erasure.encode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "erasure.decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "erasure.share_of_put", Unit: "ratio", Better: "lower"},
	{Name: "transport.invoke_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "transport.msgs_per_op", Unit: "count", Better: "lower"},
	{Name: "transport.bytes_out_per_op", Unit: "B", Better: "lower"},
	{Name: "transport.bytes_in_per_op", Unit: "B", Better: "lower"},
	{Name: "transport.codec_calls_per_op", Unit: "count", Better: "lower"},
	{Name: "transport.frames_per_op", Unit: "count", Better: "lower"},
	{Name: "transport.straggler_share", Unit: "ratio", Better: "lower"},
	{Name: "node.server_cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "node.server_allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "keystate.wal_appends_per_put", Unit: "count", Better: "lower"},
	{Name: "keystate.fsyncs_per_put", Unit: "count", Better: "lower"},
	{Name: "keystate.appends_per_fsync", Unit: "count", Better: "higher"},
	{Name: "keystate.wal_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "keystate.append_us_p50", Unit: "us", Better: "lower"},
	{Name: "keystate.fsync_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "keystate.states_per_key", Unit: "count", Better: "lower"},
	{Name: "keystate.retired_states", Unit: "count", Better: "lower"},
	{Name: "keystate.recovery_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.failed_share", Unit: "ratio", Better: "lower"},
	{Name: "bench.trace_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "bench.get_reconstruct_ratio", Unit: "ratio", Better: "higher"},
	{Name: "bench.put_reconstruct_ratio", Unit: "ratio", Better: "higher"},
}

// metric is one measured value as written to the result file.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples behind the value (ops for a per-op mean,
	// latencies for a percentile, slices for a median of slices).
	N int `json:"n"`
}

// metricSet collects values against a declaration table, so a name that is
// not declared cannot be emitted and a declared one cannot be forgotten.
type metricSet struct {
	defs   []metricDef
	values map[string]metric
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]metric, len(defs))}
}

func (s *metricSet) set(name string, value float64, n int) {
	for _, d := range s.defs {
		if d.Name == name {
			s.values[name] = metric{Value: value, Unit: d.Unit, N: n}
			return
		}
	}
	panic("bench: metric " + name + " is not declared")
}

// missing lists declared metrics that were never set.
func (s *metricSet) missing() []string {
	var out []string
	for _, d := range s.defs {
		if _, ok := s.values[d.Name]; !ok {
			out = append(out, d.Name)
		}
	}
	return out
}

// percentile is the nearest-rank p-quantile (0 < p ≤ 1) of sorted; an empty
// sample reads 0. Nearest rank always returns an observed value, so a p99
// is a latency some caller actually saw.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median of an unsorted sample (mean of the two middle values when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns Q1 and Q3 the way Python's statistics.quantiles(xs, n=4)
// does (the "exclusive" method) — the rule the acceptance driver applies, so
// -compare reports the spread the driver will see. It needs two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// sliceRates splits [start, end) into n equal slices and returns each
// slice's completions per second. ends are completion times (same clock as
// start/end); completions outside the window are ignored.
func sliceRates(ends []int64, start, end int64, n int) []float64 {
	counts := make([]int, n)
	width := float64(end-start) / float64(n)
	for _, t := range ends {
		if t < start || t >= end {
			continue
		}
		i := int(float64(t-start) / width)
		if i >= n {
			i = n - 1
		}
		counts[i]++
	}
	rates := make([]float64, n)
	for i, c := range counts {
		rates[i] = float64(c) / (width / 1e9)
	}
	return rates
}
