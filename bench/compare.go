package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// loadResults reads every result file under dir (trace files excluded) and
// groups metric values by workload then metric name.
func loadResults(dir string) (map[string]map[string][]float64, error) {
	out := make(map[string]map[string][]float64)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".json") || strings.HasSuffix(path, ".trace.json") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil || r.Workload == "" {
			return nil // not a result file
		}
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
		return nil
	})
	return out, err
}

// Verdicts of one workload × metric comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// spread is the interquartile distance as a share of the median — the
// run-to-run noise the acceptance driver computes.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs))
}

// judge compares a set of runs b against a base set a for one metric.
// A metric whose own spread (on either side) is wider than its bound cannot
// resolve a regression of that size: it is unresolved, not unchanged.
func judge(def metricDef, a, b []float64) string {
	if spread(a) > def.Bound || spread(b) > def.Bound {
		return verdictUnresolved
	}
	worse := ratio(median(b)-median(a), median(a))
	if def.Better == "higher" {
		worse = -worse
	}
	if worse > def.Bound {
		return verdictRegressed
	}
	return verdictOK
}

// compareDirs prints, per workload × end-to-end metric, both sides' medians
// and quartiles and the verdict against the metric's bound. It returns an
// error when any pair is regressed or unresolved, so scripts can gate on it.
func compareDirs(benchmarkPath, dirA, dirB string, w io.Writer) error {
	bf, err := readBenchmarkFile(benchmarkPath)
	if err != nil {
		return err
	}
	a, err := loadResults(dirA)
	if err != nil {
		return err
	}
	b, err := loadResults(dirB)
	if err != nil {
		return err
	}
	bad := 0
	fmt.Fprintf(w, "%-20s %-18s %6s  %-36s %-36s %8s  %s\n", "workload", "metric", "bound",
		"A median [q1, q3] n", "B median [q1, q3] n", "B vs A", "verdict")
	for _, wl := range bf.Workloads {
		for _, def := range bf.EndToEnd {
			va, vb := a[wl.Name][def.Name], b[wl.Name][def.Name]
			if len(va) < 2 || len(vb) < 2 {
				fmt.Fprintf(w, "%-20s %-18s %5.0f%%  needs at least 2 runs a side (have %d, %d)\n",
					wl.Name, def.Name, def.Bound*100, len(va), len(vb))
				bad++
				continue
			}
			verdict := judge(def, va, vb)
			if verdict != verdictOK {
				bad++
			}
			fmt.Fprintf(w, "%-20s %-18s %5.0f%%  %-36s %-36s %+7.1f%%  %s\n", wl.Name, def.Name, def.Bound*100,
				describe(va), describe(vb), 100*ratio(median(vb)-median(va), median(va)), verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d workload × metric pairs regressed or unresolved", bad)
	}
	return nil
}

func describe(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", median(xs), q1, q3, len(xs))
}

// baseline is one workload's committed reference: the median of each metric
// over a set of runs, with the machine they ran on.
type baseline struct {
	Workload string             `json:"workload"`
	Runs     int                `json:"runs"`
	Seconds  float64            `json:"seconds"`
	Machine  map[string]string  `json:"machine"`
	Metrics  map[string]metric  `json:"metrics"`
	Spread   map[string]float64 `json:"iqr_over_median"`
}

// writeBaseline folds the result files under src into dst/<workload>.json.
func writeBaseline(src, dst, root string) error {
	runs, err := loadResults(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	machine := machineNotes(root)
	units := make(map[string]string)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.Name] = d.Unit
	}
	for _, w := range workloads {
		byMetric, ok := runs[w.Name]
		if !ok {
			continue
		}
		b := baseline{Workload: w.Name, Seconds: defaultSecs, Machine: machine,
			Metrics: make(map[string]metric), Spread: make(map[string]float64)}
		for name, vals := range byMetric {
			b.Metrics[name] = metric{Value: median(vals), Unit: units[name], N: len(vals)}
			b.Spread[name] = spread(vals)
			if len(vals) > b.Runs {
				b.Runs = len(vals)
			}
		}
		if err := writeJSON(filepath.Join(dst, w.Name+".json"), b); err != nil {
			return err
		}
	}
	return nil
}

// machineNotes records what the numbers depend on besides the code.
func machineNotes(root string) map[string]string {
	notes := map[string]string{
		"nproc": fmt.Sprint(runtime.NumCPU()),
		"go":    runtime.Version(),
		"arch":  runtime.GOOS + "/" + runtime.GOARCH,
	}
	if rel, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		notes["kernel"] = strings.TrimSpace(string(rel))
	}
	// The filesystem under the checkout (WAL fsyncs land there): the longest
	// mount point that prefixes root.
	if mounts, err := os.ReadFile("/proc/mounts"); err == nil {
		best := ""
		for _, line := range strings.Split(string(mounts), "\n") {
			f := strings.Fields(line)
			if len(f) >= 3 && strings.HasPrefix(root, f[1]) && len(f[1]) >= len(best) {
				best, notes["filesystem"] = f[1], f[2]+" on "+f[0]
			}
		}
	}
	return notes
}
