// Command ares-bench regenerates the paper's evaluation artifacts and runs
// the multi-key ObjectStore workload suite. Each experiment prints the
// table/series the corresponding paper table, theorem, or latency lemma
// reports, measured against this implementation; the store suite drives
// YCSB-style multi-key workloads (uniform/zipfian key choice, read/write
// mixes, batched and key-at-a-time access) against a sharded ObjectStore.
//
// Usage:
//
//	ares-bench -exp all                  # run every paper experiment
//	ares-bench -exp e1,e4,f1             # selected experiments
//	ares-bench -exp f5 -csv out/         # also write CSV series for plotting
//	ares-bench -store                    # run the store workload suite
//	ares-bench -store -json bench.json   # …and write the JSON summary
//	ares-bench -chaos                    # run the chaos scenario matrix
//	ares-bench -chaos -scenario reconfig-under-drop -seed 42 -json v.json
//
// The chaos suite executes the adversarial scenario matrix of
// internal/chaos (partitions, asymmetric links, message drop/duplication,
// crash-restart, reconfiguration under loss) and reports a value-based
// linearizability verdict per scenario; a non-linearizable verdict exits
// non-zero. The seed can be pinned via -seed or the ARES_CHAOS_SEED
// environment variable for exact replay.
//
// Everything here runs in-process over the simulated network. The
// real-network benchmark — a spawned multi-process ares-server cluster on
// loopback TCP, with end-to-end and per-layer metrics — is the nested bench
// module: run it with `bash bench/run.sh`.
//
// See DESIGN.md §3 for the experiment index and EXPERIMENTS.md for recorded
// paper-vs-measured results.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	ares "github.com/ares-storage/ares"
	"github.com/ares-storage/ares/internal/benchutil"
	"github.com/ares-storage/ares/internal/chaos"
	"github.com/ares-storage/ares/internal/experiments"
	"github.com/ares-storage/ares/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		exp       = flag.String("exp", "all", "comma-separated experiment IDs, or 'all'")
		csvDir    = flag.String("csv", "", "directory to write per-experiment CSV files (optional)")
		store     = flag.Bool("store", false, "run the multi-key ObjectStore workload suite instead of the paper experiments")
		jsonPath  = flag.String("json", "", "file to write the selected suite's machine-readable JSON summary (implies -store unless -chaos)")
		duration  = flag.Duration("duration", 2*time.Second, "store suite: duration of each workload")
		workers   = flag.Int("workers", 8, "store suite: concurrent workers per workload")
		keys      = flag.Int("keys", 128, "store suite: key-space size")
		valSize   = flag.Int("valuesize", 1024, "store suite: value size in bytes")
		seed      = flag.Int64("seed", 1, "store/chaos suite: workload and fault-sampling seed (chaos: ARES_CHAOS_SEED overrides)")
		chaosRun  = flag.Bool("chaos", false, "run the adversarial chaos scenario matrix with linearizability verdicts")
		scenarios = flag.String("scenario", "", "chaos suite: comma-separated scenario names (default: the whole matrix)")
		stretch   = flag.Float64("stretch", 1, "chaos suite: scenario duration multiplier (soaks use > 1)")
		verbose   = flag.Bool("v", false, "chaos suite: log fault events")
	)
	flag.Parse()

	if *chaosRun {
		return runChaosSuite(*scenarios, chaos.SeedFromEnv(*seed), *stretch, *jsonPath, *verbose)
	}
	if *store || *jsonPath != "" {
		return runStoreSuite(storeSuiteParams{
			duration: *duration,
			workers:  *workers,
			keys:     *keys,
			valSize:  *valSize,
			seed:     *seed,
			jsonPath: *jsonPath,
		})
	}
	return runExperiments(*exp, *csvDir)
}

// chaosSummary is the machine-readable artifact -chaos -json emits: the
// scenario → verdict matrix CI archives.
type chaosSummary struct {
	Generated string          `json:"generated"`
	Suite     string          `json:"suite"`
	Seed      int64           `json:"seed"`
	Stretch   float64         `json:"stretch"`
	Verdicts  []chaos.Verdict `json:"verdicts"`
}

func runChaosSuite(filter string, seed int64, stretch float64, jsonPath string, verbose bool) error {
	var selected []chaos.Scenario
	if filter == "" {
		selected = chaos.Matrix()
	} else {
		for _, name := range strings.Split(filter, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			sc, ok := chaos.Find(name)
			if !ok {
				return fmt.Errorf("chaos: unknown scenario %q", name)
			}
			selected = append(selected, sc)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("chaos: no scenarios selected")
	}

	logf := func(string, ...any) {}
	if verbose {
		logf = func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
	}
	summary := chaosSummary{
		Generated: time.Now().UTC().Format(time.RFC3339),
		Suite:     "chaos-scenarios",
		Seed:      seed,
		Stretch:   stretch,
	}
	table := benchutil.NewTable("scenario", "ops", "incomplete", "op errs", "reconfigs", "states", "retired", "method", "verdict")
	failed := 0
	for _, sc := range selected {
		v, err := chaos.Run(sc, chaos.Options{Seed: seed, Stretch: stretch, Logf: logf})
		if err != nil {
			return fmt.Errorf("chaos: scenario %s: %w", sc.Name, err)
		}
		verdict := "LINEARIZABLE"
		if !v.Linearizable {
			verdict = "VIOLATION"
			failed++
		} else if v.StateBoundExceeded {
			// The lifecycle GC let per-server state grow past the scenario's
			// bound: an unbounded-leak regression, failed like a safety one.
			verdict = "STATE-LEAK"
			failed++
		}
		// Keys may fall back to the tag check independently; the row shows
		// the per-key methods honestly rather than just the first key's.
		method := ""
		for _, kv := range v.Keys {
			switch {
			case method == "":
				method = kv.Method
			case method != kv.Method:
				method = "mixed"
			}
		}
		table.AddRow(v.Scenario, v.Ops, v.Incomplete, v.OpErrors, v.Reconfigs,
			v.ServerStates, v.RetiredStates, method, verdict)
		summary.Verdicts = append(summary.Verdicts, v)
	}

	fmt.Printf("\n== CHAOS: adversarial scenario matrix (seed %d, stretch %.1f)\n\n", seed, stretch)
	table.Render(os.Stdout)

	if jsonPath != "" {
		data, err := json.MarshalIndent(summary, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("  → %s\n", jsonPath)
	}
	if failed > 0 {
		for _, v := range summary.Verdicts {
			if !v.Linearizable || v.StateBoundExceeded {
				fmt.Printf("  replay: %s\n", v.Replay())
			}
		}
		return fmt.Errorf("chaos: %d of %d scenarios failed (linearizability or state bound; seed %d)", failed, len(selected), seed)
	}
	return nil
}

func runExperiments(exp, csvDir string) error {
	var ids []string
	if exp == "all" {
		ids = experiments.IDs()
	} else {
		for _, id := range strings.Split(exp, ",") {
			id = strings.TrimSpace(id)
			if id != "" {
				ids = append(ids, id)
			}
		}
	}
	if len(ids) == 0 {
		return fmt.Errorf("no experiments selected")
	}
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
	}

	for _, id := range ids {
		start := time.Now()
		result, err := experiments.Run(id)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
		fmt.Printf("\n== %s: %s  (ran in %v)\n\n", strings.ToUpper(result.ID), result.Title, time.Since(start).Round(time.Millisecond))
		result.Table.Render(os.Stdout)
		for _, note := range result.Notes {
			fmt.Printf("  • %s\n", note)
		}
		if csvDir != "" {
			path := filepath.Join(csvDir, result.ID+".csv")
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			result.Table.RenderCSV(f)
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("  → %s\n", path)
		}
	}
	return nil
}

// storeSuiteParams parameterizes one store-suite invocation.
type storeSuiteParams struct {
	duration time.Duration
	workers  int
	keys     int
	valSize  int
	seed     int64
	jsonPath string
}

// storeWorkload names one workload of the suite.
type storeWorkload struct {
	Name       string
	WriteRatio float64
	Theta      float64 // 0 = uniform
	BatchSize  int     // ≤1 = key-at-a-time
}

// storeSuite is the fixed workload matrix: key distribution × mix ×
// batching. Batched rows exercise MultiGet/MultiPut fan-out; the rest the
// per-key path.
var storeSuite = []storeWorkload{
	{Name: "read-heavy-uniform", WriteRatio: 0.05},
	{Name: "read-heavy-zipfian", WriteRatio: 0.05, Theta: 0.99},
	{Name: "balanced-zipfian", WriteRatio: 0.50, Theta: 0.99},
	{Name: "write-heavy-uniform", WriteRatio: 0.95},
	{Name: "batched-read-16", WriteRatio: 0.05, BatchSize: 16},
	{Name: "batched-write-16", WriteRatio: 0.95, BatchSize: 16},
}

// latencySummary is the JSON shape of one latency distribution.
type latencySummary struct {
	Count    int     `json:"count"`
	P50Micro float64 `json:"p50_us"`
	P95Micro float64 `json:"p95_us"`
	P99Micro float64 `json:"p99_us"`
}

func toLatencySummary(s benchutil.Summary) latencySummary {
	return latencySummary{
		Count:    s.Count,
		P50Micro: float64(s.P50) / float64(time.Microsecond),
		P95Micro: float64(s.P95) / float64(time.Microsecond),
		P99Micro: float64(s.P99) / float64(time.Microsecond),
	}
}

// workloadResult is the JSON shape of one workload's outcome.
type workloadResult struct {
	Name        string         `json:"name"`
	WriteRatio  float64        `json:"write_ratio"`
	Theta       float64        `json:"theta"`
	BatchSize   int            `json:"batch_size"`
	Ops         int            `json:"ops"`
	Errors      int            `json:"errors"`
	OpsPerSec   float64        `json:"ops_per_sec"`
	KeysTouched int            `json:"keys_touched"`
	Read        latencySummary `json:"read"`
	Write       latencySummary `json:"write"`
}

// firstTouchResult reports the high-cardinality first-touch phase: the cost
// of the very first operation on N fresh keys under keyed hosting. The
// install_rpcs field pins the zero-installation invariant; heap bytes/key
// and service_instances are the per-key footprint the keyed refactor turned
// from "installed service stack" into "map entries".
type firstTouchResult struct {
	Keys             int            `json:"keys"`
	Latency          latencySummary `json:"latency"`
	OpsPerSec        float64        `json:"ops_per_sec"`
	HeapBytesPerKey  float64        `json:"heap_bytes_per_key"`
	ServiceInstances int            `json:"service_instances"`
	InstallRPCs      int64          `json:"install_rpcs"`
}

// reconfigChurnResult reports the reconfiguration-churn phase: every key's
// register walks through a chain of configurations, and the
// finalization-driven lifecycle GC must retire the superseded per-(key,
// config) server state. retired_states pins that GC fired; live_states /
// live_states_per_key pin that retained state is O(live configs), not
// O(walks); heap_bytes_per_key (measured after evicting the store's idle
// per-key clients and a runtime GC) against the no-churn baseline pins that
// the reclaimed memory is real. The phase fails the run when GC never fires,
// when live state grows with walks, or when post-churn heap exceeds 1.5× the
// baseline.
type reconfigChurnResult struct {
	Keys                    int     `json:"keys"`
	WalksPerKey             int     `json:"walks_per_key"`
	Reconfigs               int     `json:"reconfigs"`
	RetiredStates           int64   `json:"retired_states"`
	LiveStates              int     `json:"live_states"`
	LiveStatesPerKey        float64 `json:"live_states_per_key"`
	BaselineHeapBytesPerKey float64 `json:"baseline_heap_bytes_per_key"`
	HeapBytesPerKey         float64 `json:"heap_bytes_per_key"`
	HeapRatio               float64 `json:"heap_ratio"`
	ClientsEvicted          int     `json:"clients_evicted"`
	SecondsTotal            float64 `json:"seconds_total"`
}

// suiteSummary is the machine-readable artifact -json emits, shaped to seed
// the BENCH_*.json perf trajectory.
type suiteSummary struct {
	Generated     string               `json:"generated"`
	Suite         string               `json:"suite"`
	DurationMS    int64                `json:"duration_ms_per_workload"`
	Workers       int                  `json:"workers"`
	Keys          int                  `json:"keys"`
	ValueSize     int                  `json:"value_size"`
	Seed          int64                `json:"seed"`
	FirstTouch    *firstTouchResult    `json:"first_touch,omitempty"`
	ReconfigChurn *reconfigChurnResult `json:"reconfig_churn,omitempty"`
	Workloads     []workloadResult     `json:"workloads"`
}

// newSuiteStore deploys a fresh cluster + sharded ObjectStore for one
// workload, isolated so workloads don't warm each other's registers.
func newSuiteStore(prefix string, opts ...ares.NetworkOption) (*ares.ObjectStore, *ares.Cluster, *ares.Network, error) {
	const n, k, delta = 5, 3, 32
	template := ares.Config{Algorithm: ares.TREAS, K: k, Delta: delta}
	for i := 1; i <= n; i++ {
		template.Servers = append(template.Servers, ares.ProcessID(fmt.Sprintf("%s-s%d", prefix, i)))
	}
	root := template
	root.ID = ares.ConfigID(prefix + "/root")
	net := ares.NewSimNetwork(opts...)
	cluster, err := ares.NewCluster(root, net)
	if err != nil {
		return nil, nil, nil, err
	}
	store, err := ares.NewObjectStore(cluster, template)
	if err != nil {
		return nil, nil, nil, err
	}
	return store, cluster, net, nil
}

// runFirstTouch drives one Put against each of p.keys fresh keys with
// p.workers concurrent workers over a zero-delay network, so the recorded
// latency is the system's own first-touch cost (state materialization, not
// simulated wire time). It verifies on the way that no install RPC crossed
// the wire and that the service-instance count stayed flat.
func runFirstTouch(p storeSuiteParams) (*firstTouchResult, error) {
	store, cluster, net, err := newSuiteStore("bench-firsttouch")
	if err != nil {
		return nil, err
	}
	instancesBefore := cluster.ServiceInstances()
	net.Counters().Reset()
	lat := benchutil.NewLatencyRecorder()
	value := make(ares.Value, p.valSize)

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	ctx := context.Background()
	workers := p.workers
	if workers < 1 {
		workers = 1
	}
	var (
		wg      sync.WaitGroup
		latMu   sync.Mutex
		firstEr error
		erMu    sync.Mutex
	)
	next := make(chan string, workers)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for key := range next {
				opStart := time.Now()
				err := store.Put(ctx, key, value)
				d := time.Since(opStart)
				if err != nil {
					erMu.Lock()
					if firstEr == nil {
						firstEr = fmt.Errorf("first touch of %s: %w", key, err)
					}
					erMu.Unlock()
					continue
				}
				latMu.Lock()
				lat.Record(d)
				latMu.Unlock()
			}
		}()
	}
	for i := 0; i < p.keys; i++ {
		next <- fmt.Sprintf("ft-%07d", i)
	}
	close(next)
	wg.Wait()
	elapsed := time.Since(start)
	if firstEr != nil {
		return nil, firstEr
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	heapPerKey := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(p.keys)

	if rpcs := net.Counters().TotalMessages(ares.CtlServiceName); rpcs != 0 {
		return nil, fmt.Errorf("first-touch phase performed %d install RPCs, want 0", rpcs)
	}
	if got := cluster.ServiceInstances(); got != instancesBefore {
		return nil, fmt.Errorf("service instances grew %d → %d across %d keys", instancesBefore, got, p.keys)
	}
	result := &firstTouchResult{
		Keys:             p.keys,
		Latency:          toLatencySummary(lat.Summarize()),
		OpsPerSec:        float64(p.keys) / elapsed.Seconds(),
		HeapBytesPerKey:  heapPerKey,
		ServiceInstances: cluster.ServiceInstances(),
		InstallRPCs:      0,
	}
	cluster.Close()
	return result, nil
}

// Reconfig-churn phase constants: ≥1k walks across ≥100 keys (the lifecycle
// GC acceptance regime), sized independently of the workload flags so every
// run pins the same invariant.
const (
	churnKeys        = 100
	churnWalksPerKey = 10
	// churnMaxLivePerKey bounds retained server state per key after churn
	// settles. Live window ≈ tail DAP + tail pointer across 5 servers (~10)
	// plus stragglers; without GC the 11-config chain retains 100+.
	churnMaxLivePerKey = 60.0
	// churnMaxHeapRatio bounds post-GC heap per key against the no-churn
	// baseline.
	churnMaxHeapRatio = 1.5
)

// churnHeapPerKey measures the store-side steady heap per key: touch every
// key once and report the GC-settled heap delta divided by the key count.
func churnHeapPerKey(store *ares.ObjectStore, keys []string, value ares.Value, workers int) (float64, error) {
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := touchKeys(store, keys, value, workers); err != nil {
		return 0, err
	}
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(len(keys)), nil
}

// forEachKey runs fn for every key with bounded parallelism, returning the
// first error. After a failure the remaining keys are still drained (but
// skipped) so the feeder never blocks on a full channel.
func forEachKey(keys []string, workers int, fn func(key string) error) error {
	var (
		wg      sync.WaitGroup
		erMu    sync.Mutex
		firstEr error
	)
	failed := func() bool {
		erMu.Lock()
		defer erMu.Unlock()
		return firstEr != nil
	}
	next := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for key := range next {
				if failed() {
					continue
				}
				if err := fn(key); err != nil {
					erMu.Lock()
					if firstEr == nil {
						firstEr = err
					}
					erMu.Unlock()
				}
			}
		}()
	}
	for _, k := range keys {
		next <- k
	}
	close(next)
	wg.Wait()
	return firstEr
}

// touchKeys puts value to every key with bounded parallelism.
func touchKeys(store *ares.ObjectStore, keys []string, value ares.Value, workers int) error {
	ctx := context.Background()
	return forEachKey(keys, workers, func(key string) error {
		if err := store.Put(ctx, key, value); err != nil {
			return fmt.Errorf("touch %s: %w", key, err)
		}
		return nil
	})
}

// runReconfigChurn drives churnWalksPerKey reconfiguration walks on each of
// churnKeys keys and checks the lifecycle-GC invariants (see
// reconfigChurnResult). The no-churn baseline comes from an identical store
// that only touches its keys.
func runReconfigChurn(p storeSuiteParams) (*reconfigChurnResult, error) {
	workers := p.workers
	if workers < 1 {
		workers = 1
	}
	value := make(ares.Value, 128)
	keys := make([]string, churnKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("ck-%04d", i)
	}

	// Baseline: same shape, no churn.
	baseStore, baseCluster, _, err := newSuiteStore("bench-churnbase")
	if err != nil {
		return nil, err
	}
	baselineHeap, err := churnHeapPerKey(baseStore, keys, value, workers)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	baseCluster.Close()

	store, cluster, _, err := newSuiteStore("bench-churn")
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	// The walk targets reuse the suite's server set (same shape as
	// newSuiteStore's template).
	var servers []ares.ProcessID
	for i := 1; i <= 5; i++ {
		servers = append(servers, ares.ProcessID(fmt.Sprintf("bench-churn-s%d", i)))
	}

	// Heap census start: everything from here to the post-churn census —
	// per-key server state across 10 walks, tombstones, archives — lands in
	// the delta, measured exactly like the baseline's.
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := touchKeys(store, keys, value, workers); err != nil {
		return nil, err
	}

	start := time.Now()
	ctx := context.Background()
	var reconfigs atomic.Int64
	err = forEachKey(keys, workers, func(key string) error {
		for i := 1; i <= churnWalksPerKey; i++ {
			target := ares.Config{
				ID:      ares.ConfigID(fmt.Sprintf("bench-churn/%s/c%d", key, i)),
				Servers: servers,
			}
			if i%2 == 0 {
				target.Algorithm = ares.ABD
			} else {
				target.Algorithm = ares.TREAS
				target.K = 3
				target.Delta = 32
			}
			if err := store.ReconfigureKey(ctx, key, target, ares.ReconOptions{}); err != nil {
				return fmt.Errorf("churn walk %d of %s: %w", i, key, err)
			}
			reconfigs.Add(1)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// One post-churn read per key exercises the redirect path end to end
	// (clients re-discover the chain tail; retired configs answer from the
	// archive) before the state census.
	for _, k := range keys {
		if _, err := store.Get(ctx, k); err != nil {
			return nil, fmt.Errorf("post-churn read of %s: %w", k, err)
		}
	}

	// Let asynchronous finalization gossip settle, then census.
	deadline := time.Now().Add(3 * time.Second)
	live := cluster.MaterializedStates()
	for float64(live) > churnMaxLivePerKey*float64(len(keys)) && time.Now().Before(deadline) {
		time.Sleep(25 * time.Millisecond)
		live = cluster.MaterializedStates()
	}
	retired := cluster.RetiredStates()

	// Client-side bound: evict the store's idle per-key clients (each pins a
	// full configuration-sequence history) so the census measures retained
	// server state plus compact tombstones, the terms this phase bounds.
	evicted := store.EvictIdle(0)
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	heapPerKey := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(len(keys))

	result := &reconfigChurnResult{
		Keys:                    len(keys),
		WalksPerKey:             churnWalksPerKey,
		Reconfigs:               int(reconfigs.Load()),
		RetiredStates:           retired,
		LiveStates:              live,
		LiveStatesPerKey:        float64(live) / float64(len(keys)),
		BaselineHeapBytesPerKey: baselineHeap,
		HeapBytesPerKey:         heapPerKey,
		ClientsEvicted:          evicted,
		SecondsTotal:            time.Since(start).Seconds(),
	}
	if baselineHeap > 0 {
		result.HeapRatio = heapPerKey / baselineHeap
	}

	fmt.Printf("  [churn census] live=%d (%.1f/key) retired=%d evicted=%d heap %.0f → %.0f B/key (%.2fx)\n",
		live, result.LiveStatesPerKey, retired, evicted, baselineHeap, heapPerKey, result.HeapRatio)

	if retired == 0 {
		return nil, fmt.Errorf("reconfig churn: %d walks completed but retired_states = 0 — lifecycle GC never fired", reconfigs.Load())
	}
	if result.LiveStatesPerKey > churnMaxLivePerKey {
		return nil, fmt.Errorf("reconfig churn: %.1f live states per key after %d walks/key (bound %.0f) — retained state grows with walks",
			result.LiveStatesPerKey, churnWalksPerKey, churnMaxLivePerKey)
	}
	if baselineHeap > 0 && result.HeapRatio > churnMaxHeapRatio {
		return nil, fmt.Errorf("reconfig churn: post-GC heap %.0f B/key is %.2fx the no-churn baseline %.0f B/key (bound %.1fx)",
			heapPerKey, result.HeapRatio, baselineHeap, churnMaxHeapRatio)
	}
	return result, nil
}

func runStoreSuite(p storeSuiteParams) error {
	summary := suiteSummary{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		Suite:      "objectstore-multikey",
		DurationMS: p.duration.Milliseconds(),
		Workers:    p.workers,
		Keys:       p.keys,
		ValueSize:  p.valSize,
		Seed:       p.seed,
	}
	table := benchutil.NewTable("workload", "ops", "errs", "ops/s", "keys", "read p50", "read p99", "write p50", "write p99")

	// High-cardinality first-touch phase: p.keys fresh keys, no installs.
	ft, err := runFirstTouch(p)
	if err != nil {
		return fmt.Errorf("store suite first-touch: %w", err)
	}
	summary.FirstTouch = ft

	// Reconfiguration-churn phase: 1k walks across 100 keys must leave
	// retired_states > 0, O(live) retained state, and bounded post-GC heap.
	churn, err := runReconfigChurn(p)
	if err != nil {
		return fmt.Errorf("store suite reconfig-churn: %w", err)
	}
	summary.ReconfigChurn = churn

	for _, w := range storeSuite {
		store, wlCluster, _, err := newSuiteStore("bench-"+w.Name,
			ares.WithDelayRange(100*time.Microsecond, 300*time.Microsecond))
		if err != nil {
			return fmt.Errorf("store suite %s: %w", w.Name, err)
		}
		readLat := benchutil.NewLatencyRecorder()
		writeLat := benchutil.NewLatencyRecorder()
		d := workload.MultiDriver{
			Workers:    p.workers,
			WriteRatio: w.WriteRatio,
			Duration:   p.duration,
			ValueSize:  p.valSize,
			Keys:       p.keys,
			Theta:      w.Theta,
			BatchSize:  w.BatchSize,
			Seed:       p.seed,
			OnLatency: func(write bool, lat time.Duration) {
				if write {
					writeLat.Record(lat)
				} else {
					readLat.Record(lat)
				}
			},
		}
		stats, err := d.Run(context.Background(), store)
		wlCluster.Close()
		if err != nil {
			return fmt.Errorf("store suite %s: %w", w.Name, err)
		}
		rs, ws := readLat.Summarize(), writeLat.Summarize()
		table.AddRow(w.Name, stats.Ops(), stats.ReadErrs+stats.WriteErrs, stats.Throughput(),
			stats.KeysTouched, rs.P50, rs.P99, ws.P50, ws.P99)
		summary.Workloads = append(summary.Workloads, workloadResult{
			Name:        w.Name,
			WriteRatio:  w.WriteRatio,
			Theta:       w.Theta,
			BatchSize:   w.BatchSize,
			Ops:         stats.Ops(),
			Errors:      stats.ReadErrs + stats.WriteErrs,
			OpsPerSec:   stats.Throughput(),
			KeysTouched: stats.KeysTouched,
			Read:        toLatencySummary(rs),
			Write:       toLatencySummary(ws),
		})
	}

	fmt.Printf("\n== STORE: multi-key ObjectStore workload suite (%v per workload, %d workers, %d keys)\n\n",
		p.duration, p.workers, p.keys)
	table.Render(os.Stdout)
	fmt.Printf("\n  first-touch (%d fresh keys): p50 %.0fµs p99 %.0fµs, %.0f ops/s, %.0f heap B/key, %d service instances, %d install RPCs\n",
		ft.Keys, ft.Latency.P50Micro, ft.Latency.P99Micro, ft.OpsPerSec, ft.HeapBytesPerKey, ft.ServiceInstances, ft.InstallRPCs)
	fmt.Printf("  reconfig-churn (%d keys × %d walks in %.1fs): %d states retired, %.1f live states/key, heap %.0f → %.0f B/key (%.2fx), %d clients evicted\n",
		churn.Keys, churn.WalksPerKey, churn.SecondsTotal, churn.RetiredStates, churn.LiveStatesPerKey,
		churn.BaselineHeapBytesPerKey, churn.HeapBytesPerKey, churn.HeapRatio, churn.ClientsEvicted)

	if p.jsonPath != "" {
		data, err := json.MarshalIndent(summary, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(p.jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("  → %s\n", p.jsonPath)
	}
	return nil
}
