package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	ares "github.com/ares-storage/ares"
	"github.com/ares-storage/ares/internal/core"
	"github.com/ares-storage/ares/internal/erasure"
	"github.com/ares-storage/ares/internal/obs"
	"github.com/ares-storage/ares/internal/transport"
)

// runParams selects one run: one workload, one seed, traced or not.
type runParams struct {
	w       workload
	seed    int64
	seconds float64 // measured time (see phases in runWorkload)
	traced  bool
	bin     string // ares-server binary
	workDir string // scratch for logs and data dirs; removed afterwards
	outDir  string // where the trace file goes ("" = do not write)
}

// result is one run's result file, bench/out/<workload>.json.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Workers   int               `json:"workers"`
	Keys      int               `json:"keys"`
	ValueSize int               `json:"value_size"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Info is context that is not a declared metric: the correctness
	// verdict, each set-up round's time, machine notes.
	Info map[string]any `json:"info"`
}

// env is one spawned, installed and preloaded cluster with its clients.
type env struct {
	cluster *cluster
	rpc     *transport.TCPClient
	tracer  *tracer // nil unless traced
	// client is what register clients and reconfigurers talk through: rpc,
	// or the tracer wrapped around it.
	client transport.Client
	store  *keyStore
	epoch  time.Time
	setup  time.Duration // first server exec → last preload Put acked
}

func (e *env) close() {
	e.rpc.Close()
	e.cluster.stop()
}

// setUp spawns a cluster under dir, installs the workload's template through
// the control service, builds the per-key clients and preloads every key
// with one Put.
func setUp(p runParams, dir string, vals *values) (*env, error) {
	c, err := spawnCluster(p.bin, dir, p.w.Servers, p.w.Durable)
	if err != nil {
		return nil, err
	}
	e := &env{cluster: c, rpc: ares.NewTCPClient("bench", c.book), epoch: c.spawned}
	fail := func(err error) (*env, error) {
		e.close()
		return nil, err
	}
	if err := c.awaitReady(e.rpc); err != nil {
		return fail(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	err = core.RemoteInstaller(e.rpc)(ctx, p.w.Template)
	cancel()
	if err != nil {
		return fail(fmt.Errorf("installing template: %w", err))
	}
	e.client = e.rpc
	if p.traced {
		e.tracer = newTracer(e.rpc, e.epoch, c.ids)
		e.client = e.tracer
	}
	if e.store, err = newKeyStore(p.w, e.client, vals, c.ids); err != nil {
		return fail(err)
	}
	if err := e.store.preload(); err != nil {
		return fail(fmt.Errorf("preload: %w\n%s", err, c.logTails()))
	}
	e.setup = time.Since(c.spawned)
	return e, nil
}

// edge is what the harness reads at a window boundary. The light fields are
// read on every run; the scrape (an HTTP round per server, including a heap
// profile) only on a traced one.
type edge struct {
	t         int64 // ns since env.epoch
	selfCPU   time.Duration
	serverCPU time.Duration
	reg       obs.Snapshot // this process's registry: the client half
	mallocs   uint64
	servers   serverScrape
}

// takeEdge reads the counters at a boundary. The slow scrape sits on the
// outer side of the timestamp (before it when a window opens, after it when
// one closes), so server-side deltas cover the window plus a few tens of
// milliseconds, never less than the window.
func (e *env) takeEdge(scrape, opening bool) (edge, error) {
	var ed edge
	var err error
	if scrape && opening {
		if ed.servers, err = e.cluster.scrape(); err != nil {
			return ed, err
		}
	}
	if scrape {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		ed.mallocs = ms.Mallocs
	}
	if ed.serverCPU, err = e.cluster.serverCPU(); err != nil {
		return ed, err
	}
	ed.selfCPU = selfCPU()
	ed.reg = obs.Default.Snapshot()
	ed.t = int64(time.Since(e.epoch))
	if scrape && !opening {
		if ed.servers, err = e.cluster.scrape(); err != nil {
			return ed, err
		}
	}
	return ed, nil
}

// runWorkload performs one run and returns its result. Phases:
//
//	untraced: set-up ×3 (median → setup_s) · warm-up · measured window of
//	          `seconds` · read-back · verify
//	traced:   set-up ×1 · direct layer calls · warm-up · untraced third of
//	          `seconds` · traced two thirds · read-back · [kill, recover,
//	          read-back on the durable workload] · verify
//
// Any failed correctness check is an error: no metrics are emitted.
func runWorkload(p runParams) (*result, error) {
	defer os.RemoveAll(p.workDir)
	vals := newValues(p.w.ValueSize, p.seed)

	rounds := setupRounds
	if p.traced {
		rounds = 1 // setup_s is an end-to-end metric; a traced run reports none
	}
	var e *env
	var setups []float64
	for i := 0; i < rounds; i++ {
		if e != nil {
			e.close()
		}
		var err error
		if e, err = setUp(p, filepath.Join(p.workDir, fmt.Sprintf("setup%d", i)), vals); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, e.setup.Seconds())
	}
	defer e.close()

	res := &result{
		Workload: p.w.Name, Seed: p.seed, Seconds: p.seconds, Traced: p.traced,
		Workers: workers, Keys: p.w.Keys, ValueSize: p.w.ValueSize,
		Info: map[string]any{"setup_rounds_s": setups},
	}
	var direct directCalls
	if p.traced {
		var err error
		if direct, err = measureDirect(p.w, e); err != nil {
			return nil, err
		}
	}

	l := startLoad(p.w, e.store, e.tracer, p.seed, e.epoch)
	defer l.finish() // on an early return; finish is idempotent
	sleep := func(seconds float64) { time.Sleep(time.Duration(seconds * float64(time.Second))) }
	sleep(min(warmup.Seconds(), p.seconds))

	var open, mid, end edge
	var err error
	if open, err = e.takeEdge(false, true); err != nil {
		return nil, err
	}
	if p.traced {
		sleep(p.seconds / 3)
		// Tracing is switched on before the opening edge is stamped and off
		// after the closing one, so every op that starts and ends between
		// the two stamps has all of its spans.
		e.tracer.on.Store(true)
		if mid, err = e.takeEdge(true, true); err != nil {
			return nil, err
		}
		sleep(p.seconds * 2 / 3)
		end, err = e.takeEdge(true, false)
		e.tracer.on.Store(false)
	} else {
		sleep(p.seconds)
		end, err = e.takeEdge(false, false)
	}
	if err != nil {
		return nil, err
	}
	ops := l.finish()
	if len(l.failures) > 0 {
		res.Info["failures"] = l.failures
		for _, f := range l.failures {
			fmt.Fprintln(os.Stderr, "bench: failed op:", f)
		}
	}

	rss, err := e.cluster.peakRSSTotal()
	if err != nil {
		return nil, err
	}
	if err := e.store.readBack("read-back"); err != nil {
		return nil, fmt.Errorf("final read-back: %w\n%s", err, e.cluster.logTails())
	}
	recoveryMS := 0.0
	if p.traced && p.w.Durable {
		if recoveryMS, err = killAndRecover(e); err != nil {
			return nil, err
		}
	}
	v, err := e.store.verify()
	if err != nil {
		return nil, fmt.Errorf("correctness gate: %w", err)
	}
	res.Correct = true
	res.Info["verdict"] = v

	var ms *metricSet
	if p.traced {
		untraced := window(ops, open.t, mid.t)
		traced := window(ops, mid.t, end.t)
		res.Attempted, res.Failed = len(traced.all), traced.failed
		ms = newMetricSet(perLayer)
		if err := layerMetrics(ms, p, e, untraced, traced, mid, end, direct, recoveryMS); err != nil {
			return nil, err
		}
		if p.outDir != "" {
			if err := writeTrace(filepath.Join(p.outDir, p.w.Name+".trace.json"), e.tracer, traced.all); err != nil {
				return nil, err
			}
		}
	} else {
		win := window(ops, open.t, end.t)
		res.Attempted, res.Failed = len(win.all), win.failed
		ms = newMetricSet(endToEnd)
		endToEndMetrics(ms, win, open, end, setups, rss)
		res.Info["slice_ops_per_s"] = win.sliceRates()
		if p.w.Churn {
			res.Info["reconfigs_completed"] = len(win.byKind[opReconfig])
			res.Info["reconfig_p50_ms"] = quantile(win.latencyMS(opReconfig, true), 0.50)
		}
	}
	if missing := ms.missing(); len(missing) > 0 {
		return nil, fmt.Errorf("declared metrics never set: %v", missing)
	}
	res.Metrics = ms.values
	return res, nil
}

// opWindow is the ops that completed inside one phase window.
type opWindow struct {
	start, end int64
	all        []opSpan    // every op that ended in the window, failed included
	byKind     [3][]opSpan // completed (OK) ops that also started in it
	failed     int
}

func window(ops []opSpan, start, end int64) opWindow {
	w := opWindow{start: start, end: end}
	for _, op := range ops {
		if op.End < start || op.End >= end {
			continue
		}
		w.all = append(w.all, op)
		if !op.OK {
			w.failed++
		} else if op.Start >= start {
			w.byKind[op.Kind] = append(w.byKind[op.Kind], op)
		}
	}
	return w
}

// completed counts the client's reads and writes; reconfigurations are
// background work, not offered load.
func (w opWindow) completed() int { return len(w.byKind[opGet]) + len(w.byKind[opPut]) }

// latencyMS returns the kind's latencies; fromDue times scheduled ops from
// when they were due rather than when they were issued.
func (w opWindow) latencyMS(k opKind, fromDue bool) []float64 {
	out := make([]float64, 0, len(w.byKind[k]))
	for _, op := range w.byKind[k] {
		from := op.Start
		if fromDue {
			from = op.Due
		}
		out = append(out, float64(op.End-from)/1e6)
	}
	return out
}

// rate is the median of the window's slice rates of completed reads and
// writes: one slow slice (a GC cycle, a neighbour's burst) does not move it.
func (w opWindow) rate() float64 { return median(w.sliceRates()) }

func (w opWindow) sliceRates() []float64 {
	var ends []int64
	for _, k := range []opKind{opGet, opPut} {
		for _, op := range w.byKind[k] {
			ends = append(ends, op.End)
		}
	}
	return sliceRates(ends, w.start, w.end, windowSlices)
}

func counterDelta(a, b obs.Snapshot, names ...string) float64 {
	var d int64
	for _, n := range names {
		d += b.Counters[n] - a.Counters[n]
	}
	return float64(d)
}

func endToEndMetrics(ms *metricSet, w opWindow, open, end edge, setups []float64, rss int64) {
	n := w.completed()
	ms.set("setup_s", median(setups), len(setups))
	ms.set("ops_per_s", w.rate(), windowSlices)
	// The tail is taken over reads and writes together: the minority kind of
	// a 90/10 mix has too few samples in one window for a p99 of its own to
	// repeat (those are the per-layer core.get_p99_ms and core.put_p99_ms).
	var pooled []float64
	for _, k := range []opKind{opGet, opPut} {
		lat := w.latencyMS(k, false)
		ms.set(k.String()+"_p50_ms", quantile(lat, 0.50), len(lat))
		pooled = append(pooled, lat...)
	}
	ms.set("op_p99_ms", quantile(pooled, 0.99), len(pooled))
	cpu := (end.selfCPU - open.selfCPU) + (end.serverCPU - open.serverCPU)
	ms.set("cpu_ms_per_op", ratio(float64(cpu)/1e6, float64(n)), n)
	ms.set("net_bytes_per_op", ratio(counterDelta(open.reg, end.reg,
		"ares_wire_encoded_bytes_total", "ares_wire_decoded_bytes_total"), float64(n)), n)
	ms.set("rss_mb", float64(rss)/(1<<20), 1)
}

// directCalls are layer costs measured by calling the layer directly,
// before any load.
type directCalls struct {
	rttUS                float64
	rttN                 int
	encodeMBs, decodeMBs float64
	encodeUS             float64 // one Encode of a workload-sized value
}

const (
	rttPings     = 2000
	erasureIters = 40
)

func measureDirect(w workload, e *env) (directCalls, error) {
	var d directCalls
	lat := make([]float64, 0, rttPings)
	for i := 0; i < rttPings; i++ {
		start := time.Now()
		if err := ping(e.rpc, e.cluster.ids[0], opTimeout); err != nil {
			return d, fmt.Errorf("transport rtt ping: %w", err)
		}
		lat = append(lat, float64(time.Since(start))/1e3)
	}
	d.rttUS, d.rttN = quantile(lat, 0.50), len(lat)
	if w.Template.Algorithm != ares.TREAS {
		return d, nil
	}
	code := erasure.Must(len(w.Template.Servers), w.Template.K)
	value := newValues(w.ValueSize, 1).make(0, 0)
	var enc, dec []float64
	for i := 0; i < erasureIters; i++ {
		start := time.Now()
		shards, err := code.Encode(value)
		if err != nil {
			return d, err
		}
		enc = append(enc, float64(time.Since(start))/1e3)
		// Decode from the last k shards, so parity is really inverted.
		subset := make(map[int][]byte, code.K())
		for j := code.N() - code.K(); j < code.N(); j++ {
			subset[j] = shards[j]
		}
		start = time.Now()
		if _, err := code.Decode(subset, len(value)); err != nil {
			return d, err
		}
		dec = append(dec, float64(time.Since(start))/1e3)
	}
	d.encodeUS = median(enc)
	d.encodeMBs = float64(len(value)) / d.encodeUS // bytes/µs = MB/s
	d.decodeMBs = float64(len(value)) / median(dec)
	return d, nil
}

// killAndRecover SIGKILLs every server, respawns them on the same data
// directories and ports, and times exec → first served Get. Then every key
// is read back into the histories, so the checker proves each key returns a
// value at least as new as its last acknowledged Put. kill -9 leaves the OS
// page cache intact: this checks process-crash recovery, not power loss.
func killAndRecover(e *env) (float64, error) {
	c := e.cluster
	c.kill()
	if err := c.start(); err != nil {
		return 0, err
	}
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
		err := e.store.get(ctx, sweeper("recovery"), 0)
		cancel()
		if err == nil {
			break
		}
		if time.Since(c.spawned) > 30*time.Second {
			return 0, fmt.Errorf("no Get served 30s after respawn: %v\n%s", err, c.logTails())
		}
		time.Sleep(5 * time.Millisecond)
	}
	recovery := time.Since(c.spawned)
	if err := c.awaitReady(e.rpc); err != nil {
		return 0, err
	}
	if err := e.store.readBack("recovery"); err != nil {
		return 0, fmt.Errorf("read-back after kill -9: %w\n%s", err, c.logTails())
	}
	return float64(recovery) / 1e6, nil
}

// walCounters must stay exactly zero on an in-memory workload.
var walCounters = []string{"ares_wal_appends_total", "ares_wal_fsyncs_total", "ares_wal_appended_bytes_total", "ares_wal_commits_total"}

// layerMetrics fills every per-layer metric from the traced window, and
// fails the run when a bypass prediction does not hold: that means a
// workload no longer isolates the layer it exists to isolate.
func layerMetrics(ms *metricSet, p runParams, e *env, untraced, traced opWindow, open, end edge, d directCalls, recoveryMS float64) error {
	spans, _ := e.tracer.spans()
	var tracedOps []opSpan
	for _, ops := range traced.byKind {
		tracedOps = append(tracedOps, ops...)
	}
	st := analyze(tracedOps, spans, e.tracer.labels)

	get, put, rec := &st.Kind[opGet], &st.Kind[opPut], &st.Kind[opReconfig]
	n := traced.completed()
	fn := float64(n)
	puts := float64(put.Ops)

	ms.set("core.rounds_per_get", ratio(float64(get.Rounds), float64(get.Ops)), get.Ops)
	ms.set("core.rounds_per_put", ratio(float64(put.Rounds), puts), put.Ops)
	ms.set("core.meta_rounds_per_op", ratio(float64(st.MetaRounds), fn), n)
	ms.set("core.fastpath_share", ratio(counterDelta(open.reg, end.reg, "ares_client_read_fastpaths_total"),
		counterDelta(open.reg, end.reg, "ares_client_read_ops_total")), get.Ops)
	ms.set("core.retries_per_op", ratio(counterDelta(open.reg, end.reg, "ares_client_retries_total"), fn), n)
	for _, k := range []opKind{opGet, opPut} {
		lat := traced.latencyMS(k, false)
		ms.set("core."+k.String()+"_p99_ms", quantile(lat, 0.99), len(lat))
	}
	ms.set("core.client_self_us_per_get", median(get.SelfUS), get.Ops)
	ms.set("core.client_self_us_per_put", median(put.SelfUS), put.Ops)
	ms.set("core.client_cpu_ms_per_op", ratio(float64(end.selfCPU-open.selfCPU)/1e6, fn), n)
	ms.set("core.client_allocs_per_op", ratio(float64(end.mallocs-open.mallocs), fn), n)

	ms.set("recon.read_config_us_p50", quantile(st.ReadConfigUS, 0.50), len(st.ReadConfigUS))
	ms.set("recon.configs_traversed_per_op", ratio(float64(st.ConfigsTraversed), fn), n)
	ms.set("recon.write_config_us_p50", quantile(st.WriteConfigUS, 0.50), len(st.WriteConfigUS))
	ms.set("recon.update_config_ms_p50", quantile(st.UpdateConfigMS, 0.50), len(st.UpdateConfigMS))
	reconfigMS := traced.latencyMS(opReconfig, true)
	ms.set("recon.reconfig_ms_p50", quantile(reconfigMS, 0.50), len(reconfigMS))
	ms.set("recon.reconfig_ms_p90", quantile(reconfigMS, 0.90), len(reconfigMS))
	var lag []float64
	for _, op := range traced.byKind[opReconfig] {
		lag = append(lag, float64(op.Start-op.Due)/1e6)
	}
	ms.set("recon.schedule_lag_ms_p99", quantile(lag, 0.99), len(lag))
	ms.set("recon.reconfigs_completed", float64(rec.Ops), rec.Ops)
	ms.set("consensus.decide_ms_p50", quantile(st.DecideMS, 0.50), len(st.DecideMS))
	ms.set("consensus.rounds_per_decision", ratio(float64(st.PaxosRounds), float64(len(st.DecideMS))), len(st.DecideMS))

	ms.set("dap.get_tag_us_p50", quantile(st.GetTagUS, 0.50), len(st.GetTagUS))
	ms.set("dap.get_data_us_p50", quantile(st.GetDataUS, 0.50), len(st.GetDataUS))
	ms.set("dap.put_data_us_p50", quantile(st.PutDataUS, 0.50), len(st.PutDataUS))
	ms.set("treas.query_list_reply_bytes_p50", quantile(st.QueryListReplyB, 0.50), len(st.QueryListReplyB))

	putP50US := quantile(put.LatencyUS, 0.50)
	ms.set("erasure.encode_mb_per_s", d.encodeMBs, erasureIters)
	ms.set("erasure.decode_mb_per_s", d.decodeMBs, erasureIters)
	ms.set("erasure.share_of_put", ratio(d.encodeUS, putP50US), put.Ops)

	ms.set("transport.invoke_rtt_us_p50", d.rttUS, d.rttN)
	ms.set("transport.msgs_per_op", ratio(float64(st.Invokes), float64(len(tracedOps))), len(tracedOps))
	ms.set("transport.bytes_out_per_op", ratio(counterDelta(open.reg, end.reg, "ares_wire_encoded_bytes_total"), fn), n)
	ms.set("transport.bytes_in_per_op", ratio(counterDelta(open.reg, end.reg, "ares_wire_decoded_bytes_total"), fn), n)
	ms.set("transport.codec_calls_per_op", ratio(counterDelta(open.reg, end.reg, "ares_codec_encodes_total", "ares_codec_decodes_total"), fn), n)
	ms.set("transport.frames_per_op", ratio(counterDelta(open.reg, end.reg, "ares_wire_encodes_total", "ares_wire_decodes_total"), fn), n)
	ms.set("transport.straggler_share", ratio(float64(st.Stragglers), float64(st.Invokes)), st.Invokes)

	ms.set("node.server_cpu_ms_per_op", ratio(float64(end.serverCPU-open.serverCPU)/1e6, fn), n)
	ms.set("node.server_allocs_per_op", ratio(float64(end.servers.mallocs-open.servers.mallocs), fn), n)

	sc := func(name string) float64 { return float64(end.servers.counters[name] - open.servers.counters[name]) }
	appends, fsyncs := sc("ares_wal_appends_total"), sc("ares_wal_fsyncs_total")
	ms.set("keystate.wal_appends_per_put", ratio(appends, puts), put.Ops)
	ms.set("keystate.fsyncs_per_put", ratio(fsyncs, puts), put.Ops)
	ms.set("keystate.appends_per_fsync", ratio(appends, fsyncs), int(fsyncs))
	ms.set("keystate.wal_bytes_per_user_byte", ratio(sc("ares_wal_appended_bytes_total"), puts*float64(p.w.ValueSize)), put.Ops)
	appendH := histDelta(open.servers.hists["ares_wal_append_seconds"], end.servers.hists["ares_wal_append_seconds"])
	fsyncH := histDelta(open.servers.hists["ares_wal_fsync_seconds"], end.servers.hists["ares_wal_fsync_seconds"])
	ms.set("keystate.append_us_p50", histP50(appendH)/1e3, int(appendH.Count))
	ms.set("keystate.fsync_ms_p50", histP50(fsyncH)/1e6, int(fsyncH.Count))
	ms.set("keystate.states_per_key", ratio(float64(end.servers.gauges["ares_host_materialized_states"]), float64(p.w.Keys)), p.w.Keys)
	ms.set("keystate.retired_states", float64(end.servers.gauges["ares_host_retired_states"]), 1)
	ms.set("keystate.recovery_ms", recoveryMS, 1)

	ms.set("bench.failed_share", ratio(float64(traced.failed), float64(len(traced.all))), len(traced.all))
	ms.set("bench.trace_overhead_share", 1-ratio(traced.rate(), untraced.rate()), windowSlices)
	ms.set("bench.get_reconstruct_ratio", ratio(get.reconstruct(), quantile(get.LatencyUS, 0.50)), get.Ops)
	ms.set("bench.put_reconstruct_ratio", ratio(put.reconstruct(), putP50US), put.Ops)

	// Bypass predictions the benchmark can check itself.
	if !p.w.Durable {
		for _, name := range walCounters {
			if v := end.servers.counters[name]; v != 0 {
				return fmt.Errorf("bypass prediction failed: %s = %d on in-memory workload %s", name, v, p.w.Name)
			}
		}
	}
	if !p.w.Churn {
		if rec.Ops != 0 || len(traced.byKind[opReconfig]) != 0 {
			return fmt.Errorf("bypass prediction failed: %d reconfigurations on %s", rec.Ops, p.w.Name)
		}
		if v := ms.values["recon.configs_traversed_per_op"].Value; v > 0.01 {
			return fmt.Errorf("bypass prediction failed: recon.configs_traversed_per_op = %.4f on %s, which never reconfigures", v, p.w.Name)
		}
		if p.w.Template.Algorithm == ares.ABD && (st.TreasSpans != 0 || d.encodeUS != 0) {
			return fmt.Errorf("bypass prediction failed: %d treas/* messages on ABD workload %s, so erasure.share_of_put is not 0", st.TreasSpans, p.w.Name)
		}
	}
	return nil
}
