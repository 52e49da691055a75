package main

import (
	"bytes"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.50, 5}, {0.90, 9}, {0.99, 10}, {0.01, 1}, {1, 10}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := quantile([]float64{9, 1, 5}, 0.5); got != 5 {
		t.Errorf("quantile sorts its input: got %v, want 5", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2, 6, 5}); got != 3.5 {
		t.Errorf("even median = %v, want 3.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
}

// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] and
// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5] in Python.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1.0 || q3 != 4.5 {
		t.Errorf("quartiles(3,1,4,1,5) = %v, %v; want 1, 4.5", q1, q3)
	}
}

func TestSliceRatesMedianIgnoresOneSlowSlice(t *testing.T) {
	// A 6 s window in 1 s slices: 100 completions in each but the third,
	// which stalls at 10. Completions outside the window are ignored.
	const sec = int64(1e9)
	var ends []int64
	for slice := int64(0); slice < 6; slice++ {
		n := int64(100)
		if slice == 2 {
			n = 10
		}
		for i := int64(0); i < n; i++ {
			ends = append(ends, 10*sec+slice*sec+i*sec/n)
		}
	}
	ends = append(ends, 9*sec, 16*sec, 17*sec)
	rates := sliceRates(ends, 10*sec, 16*sec, 6)
	want := []float64{100, 100, 10, 100, 100, 100}
	for i := range want {
		if math.Abs(rates[i]-want[i]) > 1e-9 {
			t.Fatalf("slice rates = %v, want %v", rates, want)
		}
	}
	if got := median(rates); got != 100 {
		t.Errorf("median of slice rates = %v, want 100", got)
	}
}

// inv builds an answered Invoke span; times are in microseconds.
func inv(label int, config uint64, dst int, start, end int64) invokeSpan {
	return invokeSpan{Op: 1, Label: label, Config: config, Dst: dst, Start: start * 1000, End: end * 1000}
}

func cancelled(s invokeSpan) invokeSpan { s.Cancelled = true; return s }

func TestGroupRoundsStragglersAndSelfTime(t *testing.T) {
	const (
		readConfig = iota
		query
	)
	// A fast-path get on three servers: read-config, get-data, read-config.
	// Each round's third Invoke is cancelled when the quorum (2) is in; in
	// the last round the third goroutine is scheduled only after the quorum
	// answered, so its Invoke starts late and overlaps nothing.
	spans := []invokeSpan{
		inv(readConfig, 7, 0, 10, 110),
		inv(readConfig, 7, 1, 12, 130),
		cancelled(inv(readConfig, 7, 2, 14, 135)),
		inv(query, 7, 0, 150, 300),
		inv(query, 7, 1, 152, 280),
		cancelled(inv(query, 7, 2, 151, 305)),
		inv(readConfig, 7, 0, 320, 400),
		inv(readConfig, 7, 1, 322, 410),
		cancelled(inv(readConfig, 7, 2, 412, 413)),
	}
	rounds := groupRounds(spans)
	if len(rounds) != 3 {
		t.Fatalf("got %d rounds, want 3: %+v", len(rounds), rounds)
	}
	wantIntervals := [][2]int64{{10, 130}, {150, 300}, {320, 410}}
	for i, r := range rounds {
		if r.Start != wantIntervals[i][0]*1000 || r.End != wantIntervals[i][1]*1000 {
			t.Errorf("round %d interval = [%d, %d] µs, want %v: stragglers must not stretch it", i, r.Start/1000, r.End/1000, wantIntervals[i])
		}
		if r.Invokes != 3 || r.Stragglers != 1 {
			t.Errorf("round %d: %d invokes, %d stragglers; want 3, 1", i, r.Invokes, r.Stragglers)
		}
	}
	op := opSpan{ID: 1, Kind: opGet, Start: 0, End: 430 * 1000}
	// 430 − (120 + 150 + 90) = 70 µs of client self time.
	if got := selfTime(op, rounds); got != 70*1000 {
		t.Errorf("self time = %d µs, want 70", got/1000)
	}
}

func TestGroupRoundsSplitsRetriesAndConfigurations(t *testing.T) {
	const getData = 0
	spans := []invokeSpan{
		// get-data on configuration 7, then a retry of the same phase (the
		// same servers asked again), then get-data on configuration 8.
		inv(getData, 7, 0, 0, 100), inv(getData, 7, 1, 1, 110),
		inv(getData, 7, 0, 200, 300), inv(getData, 7, 1, 201, 310),
		inv(getData, 8, 2, 320, 400), inv(getData, 8, 3, 321, 410),
	}
	if rounds := groupRounds(spans); len(rounds) != 3 {
		t.Fatalf("got %d rounds, want 3 (retry and new configuration each start a round): %+v", len(rounds), rounds)
	}
	// A round nobody answered spans its stragglers.
	only := groupRounds([]invokeSpan{cancelled(inv(getData, 7, 0, 0, 50)), cancelled(inv(getData, 7, 1, 1, 60))})
	if len(only) != 1 || only[0].End != 60*1000 || only[0].Stragglers != 2 {
		t.Errorf("all-straggler round = %+v, want one round ending at 60 µs", only)
	}
}

func TestAnalyzeAttributesRounds(t *testing.T) {
	labels := []string{"recon/read-config", "abd/query", "abd/query-tag", "abd/write", "paxos/prepare", "paxos/accept", "recon/write-config"}
	mk := func(op uint64, label int, config uint64, start int64) []invokeSpan {
		var out []invokeSpan
		for dst := 0; dst < 3; dst++ {
			s := inv(label, config, dst, start, start+100)
			s.Op = op
			if dst == 2 {
				s = cancelled(s)
			}
			out = append(out, s)
		}
		return out
	}
	var spans []invokeSpan
	add := func(op uint64, seq ...[2]int) {
		at := int64(0)
		for _, lc := range seq {
			spans = append(spans, mk(op, lc[0], uint64(lc[1]), at)...)
			at += 150
		}
	}
	// op 1: a steady get (3 rounds); op 2: a put (4 rounds); op 3: a get
	// that follows the chain to a new configuration (read-config on 7
	// finds 8: write-config, read-config on 8, get-data on both, trailing
	// read-config): 6 rounds, one read-config beyond the steady two.
	add(1, [2]int{0, 7}, [2]int{1, 7}, [2]int{0, 7})
	add(2, [2]int{0, 7}, [2]int{2, 7}, [2]int{3, 7}, [2]int{0, 7})
	add(3, [2]int{0, 7}, [2]int{6, 7}, [2]int{0, 8}, [2]int{1, 7}, [2]int{1, 8}, [2]int{0, 8})
	// op 4: a reconfiguration: read-config, prepare, accept, write-config,
	// get-data, put-data, write-config.
	add(4, [2]int{0, 7}, [2]int{4, 7}, [2]int{5, 7}, [2]int{6, 7}, [2]int{1, 7}, [2]int{3, 8}, [2]int{6, 7})
	// Spans of an op outside the window must be ignored.
	add(9, [2]int{0, 7})

	ops := []opSpan{
		{ID: 1, Kind: opGet, Start: 0, End: 500 * 1000, OK: true},
		{ID: 2, Kind: opPut, Start: 0, End: 700 * 1000, OK: true},
		{ID: 3, Kind: opGet, Start: 0, End: 1000 * 1000, OK: true},
		{ID: 4, Kind: opReconfig, Start: 0, End: 1200 * 1000, OK: true},
	}
	st := analyze(ops, spans, labels)
	if g := st.Kind[opGet]; g.Ops != 2 || g.Rounds != 3+6 {
		t.Errorf("gets: %d ops, %d rounds; want 2, 9", g.Ops, g.Rounds)
	}
	if p := st.Kind[opPut]; p.Ops != 1 || p.Rounds != 4 {
		t.Errorf("puts: %d ops, %d rounds; want 1, 4", p.Ops, p.Rounds)
	}
	if st.MetaRounds != 2+2+3 {
		t.Errorf("meta rounds = %d, want 7", st.MetaRounds)
	}
	if st.ConfigsTraversed != 1 {
		t.Errorf("configs traversed = %d, want 1 (op 3's third read-config)", st.ConfigsTraversed)
	}
	if st.PaxosRounds != 2 || len(st.DecideMS) != 1 || math.Abs(st.DecideMS[0]-0.250) > 1e-9 {
		t.Errorf("paxos: %d rounds, decide %v ms; want 2 rounds, 0.25 ms (prepare start → accept end)", st.PaxosRounds, st.DecideMS)
	}
	if len(st.UpdateConfigMS) != 1 || math.Abs(st.UpdateConfigMS[0]-0.250) > 1e-9 {
		t.Errorf("update-config = %v ms, want 0.25 (get-data start → put-data end)", st.UpdateConfigMS)
	}
	if st.Invokes != (3+4+6+7)*3 || st.Stragglers != 3+4+6+7 {
		t.Errorf("%d invokes, %d stragglers; want 60, 20", st.Invokes, st.Stragglers)
	}
	// Steady get: 3 rounds × 100 µs + 200 µs self = its 500 µs span.
	steady := kindStats{Ops: 1, SelfUS: []float64{200}, roundUS: map[string][]float64{"a": {100, 100}, "b": {100}}}
	if got := steady.reconstruct(); got != 500 {
		t.Errorf("reconstruct = %v, want 500", got)
	}
}

func TestParseProcStat(t *testing.T) {
	// Field 2 may contain spaces and parentheses; utime=250 stime=50 ticks.
	line := "1234 (ares (srv) x) S 1 1 1 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 9 0 100 1 1\n"
	got, err := parseProcStat(line)
	if err != nil || got.Seconds() != 3 {
		t.Errorf("parseProcStat = %v, %v; want 3s", got, err)
	}
	if _, err := parseProcStat(strings.Replace(line, ") S ", ") Z ", 1)); err == nil {
		t.Error("a zombie must read as a dead server")
	}
}

func TestValuesCheck(t *testing.T) {
	v := newValues(1024, 7)
	a := v.make(1, 42)
	if h, err := v.check(a); err != nil || !bytes.Equal(h, a[:headerLen]) {
		t.Fatalf("check of an intact value: %v", err)
	}
	b := v.make(1, 43)
	if bytes.Equal(a[headerLen:], b[headerLen:]) {
		t.Error("successive writes share their padding")
	}
	spliced := append(append([]byte(nil), a[:512]...), b[512:]...)
	if _, err := v.check(spliced); err == nil {
		t.Error("a value spliced from two writes passed the padding check")
	}
	if _, err := v.check(a[:100]); err == nil {
		t.Error("a truncated value passed the check")
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "get_p50_ms", Better: "lower", Bound: 0.08}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.08}
	base := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	if got := judge(lower, base, []float64{1.05, 1.06, 1.04, 1.05, 1.07}); got != verdictOK {
		t.Errorf("+5%% on an 8%% bound = %s, want ok", got)
	}
	if got := judge(lower, base, []float64{1.15, 1.16, 1.14, 1.15, 1.17}); got != verdictRegressed {
		t.Errorf("+15%% latency = %s, want regressed", got)
	}
	if got := judge(higher, base, []float64{1.15, 1.16, 1.14, 1.15, 1.17}); got != verdictOK {
		t.Errorf("+15%% throughput = %s, want ok", got)
	}
	if got := judge(higher, base, []float64{0.85, 0.86, 0.84, 0.85, 0.87}); got != verdictRegressed {
		t.Errorf("−15%% throughput = %s, want regressed", got)
	}
	if got := judge(lower, base, []float64{0.8, 1.2, 1.0, 0.7, 1.3}); got != verdictUnresolved {
		t.Errorf("a spread wider than the bound = %s, want unresolved", got)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$`)

// TestBenchmarkJSONAgrees keeps BENCHMARK.json, which the driver reads, in
// step with the tables the harness emits from, and inside the driver's
// limits.
func TestBenchmarkJSONAgrees(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != defaultSecs {
		t.Errorf("run_seconds = %d, harness default is %d", bf.RunSeconds, defaultSecs)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, harness has %d", len(bf.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the driver's limits", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range bf.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, harness %q (or their why differs)", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, declared, table []metricDef) {
		if len(declared) != len(table) {
			t.Fatalf("%s: %d declared, harness emits %d", kind, len(declared), len(table))
		}
		for i, d := range declared {
			unique(d.Name)
			if d != table[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, harness %+v", kind, i, d, table[i])
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
	var setup *metricDef
	for i, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = &endToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Fatal("end_to_end must include setup_s in s, lower is better")
	}
	for _, d := range endToEnd {
		if d.Bound > setup.Bound {
			t.Errorf("%s has a wider bound than setup_s", d.Name)
		}
	}
}

// TestSmoke runs the harness end to end against spawned servers, following
// the build-the-binary precedent of cmd_integration_test.go: every workload's
// traced pass (all per-layer metrics, the bypass predictions, kill-and-recover
// on the durable one) and one untraced pass, and checks that exactly the
// declared metrics come out.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs subprocesses")
	}
	bin := filepath.Join(t.TempDir(), "ares-server")
	build := exec.Command("go", "build", "-o", bin, "./cmd/ares-server")
	build.Dir = ".."
	if msg, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building ares-server: %v\n%s", err, msg)
	}
	run := func(w workload, traced bool, defs []metricDef) {
		out := t.TempDir()
		res, err := runWorkload(runParams{w: w, seed: 1, seconds: 0.6, traced: traced, bin: bin,
			workDir: filepath.Join(t.TempDir(), "work"), outDir: out})
		if err != nil {
			t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("%s traced=%v: %d metrics emitted, %d declared", w.Name, traced, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := res.Metrics[d.Name]
			if !ok || m.Unit != d.Unit {
				t.Errorf("%s traced=%v: metric %s missing or in %q, want %q", w.Name, traced, d.Name, m.Unit, d.Unit)
			}
			if !traced && m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, m.Value)
			}
		}
		if traced {
			if _, err := os.Stat(filepath.Join(out, w.Name+".trace.json")); err != nil {
				t.Errorf("%s: no trace file: %v", w.Name, err)
			}
			if w.Durable && res.Metrics["keystate.recovery_ms"].Value <= 0 {
				t.Errorf("%s: keystate.recovery_ms = 0 after kill -9", w.Name)
			}
			if w.Churn && res.Metrics["recon.reconfigs_completed"].Value < 1 {
				t.Errorf("%s: no reconfiguration completed", w.Name)
			}
		}
	}
	small := smokeSized(workloads)
	for _, w := range small {
		run(w, true, perLayer)
	}
	run(small[0], false, endToEnd)
}
