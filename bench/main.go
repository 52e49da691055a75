// Command bench is this repository's one benchmark: four workloads against a
// real multi-process ares-server cluster on loopback TCP, driven through the
// public client surface, checked for atomicity on every run. See README.md
// for what is measured and why; BENCHMARK.json declares it to the driver.
//
//	bash bench/run.sh                                   # all workloads, both passes
//	bash bench/run.sh -workload abd-small-read -seed 2  # one workload, both passes
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1   # driver form
//	bash bench/run.sh -compare a/ b/                    # two sets of result dirs
//	bash bench/run.sh -baseline a/                      # medians → bench/baseline/
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name      = flag.String("workload", "", "workload to run (default: all four, one process each)")
		seed      = flag.Int64("seed", 1, "seed for key choice, op mix and value bytes")
		seconds   = flag.Float64("seconds", defaultSecs, "measured seconds per run")
		trace     = flag.Int("trace", -1, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; -1: both")
		out       = flag.String("out", "", "directory for result and trace files (default: bench/out)")
		serverBin = flag.String("server-bin", "", "ares-server binary (default: go build ./cmd/ares-server into .bench_build)")
		compare   = flag.Bool("compare", false, "compare two result directories given as arguments against BENCHMARK.json's bounds")
		baseDir   = flag.String("baseline", "", "fold the result files under this directory into bench/baseline/<workload>.json (medians) and exit")
		smoke     = flag.Bool("smoke", false, "quick end-to-end pass: 16 keys, 1 s windows (numbers are not comparable)")
	)
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		return err
	}
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two result directories")
		}
		return compareDirs(filepath.Join(root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1), os.Stdout)
	}

	if *baseDir != "" {
		return writeBaseline(*baseDir, filepath.Join(root, "bench", "baseline"), root)
	}

	if *name == "" {
		// One process per workload, as the driver runs them: rss_mb counts
		// this process's peak resident set, which never goes down again.
		for _, w := range workloads {
			cmd := exec.Command(os.Args[0], append(os.Args[1:], "-workload", w.Name)...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
		}
		return nil
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *smoke {
		*seconds = 1
		w = smokeSized([]workload{w})[0]
	}
	if *out == "" {
		*out = filepath.Join(root, "bench", "out")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	killOnSignal()
	bin := *serverBin
	if bin == "" {
		if bin, err = buildServer(root); err != nil {
			return err
		}
	}

	merged := &result{Metrics: map[string]metric{}, Info: map[string]any{}}
	for _, traced := range []bool{false, true} {
		if (*trace == 0 && traced) || (*trace == 1 && !traced) {
			continue
		}
		res, err := runWorkload(runParams{
			w: w, seed: *seed, seconds: *seconds, traced: traced, bin: bin, outDir: *out,
			workDir: filepath.Join(root, ".bench_build", "run", fmt.Sprintf("%s-%d", w.Name, os.Getpid())),
		})
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		printMetrics(res)
		merge(merged, res)
		// The driver reads the last line of stdout: one run's result.
		line, err := json.Marshal(driverLine(res))
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return writeJSON(filepath.Join(*out, w.Name+".json"), merged)
}

// findRoot walks up from the working directory to the checkout root, the
// directory that holds BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("BENCHMARK.json not found above the working directory")
		}
		dir = parent
	}
}

// buildServer compiles ares-server from the checkout. Build time is not part
// of setup_s: build-cache state is not the program's cost.
func buildServer(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "ares-server")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/ares-server")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building ares-server: %v\n%s", err, out)
	}
	return bin, nil
}

// printMetrics writes one "name value unit n=<samples>" line per metric, in
// declaration order.
func printMetrics(res *result) {
	pass, defs := "untraced", endToEnd
	if res.Traced {
		pass, defs = "traced", perLayer
	}
	fmt.Printf("== %s seed=%d %s: %d ops attempted, %d failed, %d keys linearizable\n",
		res.Workload, res.Seed, pass, res.Attempted, res.Failed, res.Info["verdict"].(verdict).Keys)
	for _, d := range defs {
		m := res.Metrics[d.Name]
		fmt.Printf("%-36s %14.4f %-6s n=%d\n", d.Name, m.Value, m.Unit, m.N)
	}
}

// driverLine is the object the acceptance driver parses: exactly correct,
// attempted, failed and the pass's metrics as {value, unit}.
func driverLine(res *result) map[string]any {
	metrics := make(map[string]map[string]any, len(res.Metrics))
	for name, m := range res.Metrics {
		metrics[name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return map[string]any{"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics}
}

// merge folds one pass into the workload's result file. Attempted and
// failed add up over the passes; an untraced and a traced pass declare
// disjoint metric names.
func merge(into, res *result) {
	into.Workload, into.Seed, into.Seconds = res.Workload, res.Seed, res.Seconds
	into.Workers, into.Keys, into.ValueSize = res.Workers, res.Keys, res.ValueSize
	into.Traced = into.Traced || res.Traced
	into.Correct = res.Correct
	into.Attempted += res.Attempted
	into.Failed += res.Failed
	for k, v := range res.Metrics {
		into.Metrics[k] = v
	}
	pass := "untraced"
	if res.Traced {
		pass = "traced"
	}
	into.Info[pass] = res.Info
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
