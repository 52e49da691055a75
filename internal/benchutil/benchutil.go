// Package benchutil provides the measurement utilities shared by the paper
// experiments (internal/experiments) and the examples: latency aggregation
// with percentiles, and aligned table / CSV emission so each experiment
// prints the same rows the paper's evaluation reports.
package benchutil

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// LatencyRecorder accumulates operation latencies from concurrent workers.
type LatencyRecorder struct {
	mu      sync.Mutex
	samples []time.Duration
}

// NewLatencyRecorder returns an empty recorder.
func NewLatencyRecorder() *LatencyRecorder {
	return &LatencyRecorder{}
}

// Record adds one latency sample.
func (r *LatencyRecorder) Record(d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples = append(r.samples, d)
}

// Time measures fn and records its latency; it returns fn's error.
func (r *LatencyRecorder) Time(fn func() error) error {
	start := time.Now()
	err := fn()
	if err == nil {
		r.Record(time.Since(start))
	}
	return err
}

// Summary holds aggregate latency statistics.
type Summary struct {
	Count int
	Mean  time.Duration
	P50   time.Duration
	P95   time.Duration
}

// Summarize computes the summary of all recorded samples.
func (r *LatencyRecorder) Summarize() Summary {
	r.mu.Lock()
	samples := make([]time.Duration, len(r.samples))
	copy(samples, r.samples)
	r.mu.Unlock()

	if len(samples) == 0 {
		return Summary{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	var total time.Duration
	for _, s := range samples {
		total += s
	}
	return Summary{
		Count: len(samples),
		Mean:  total / time.Duration(len(samples)),
		P50:   percentile(samples, 0.50),
		P95:   percentile(samples, 0.95),
	}
}

// percentile returns the p-quantile of sorted samples (nearest-rank).
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Table accumulates rows and renders them as an aligned text table — the
// "prints the same rows the paper reports" output of each experiment.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; values are stringified with %v.
func (t *Table) AddRow(values ...any) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", x)
		case time.Duration:
			row[i] = x.Round(time.Microsecond).String()
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// Render writes the aligned table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
}

// RenderCSV writes the table as CSV to w (for plotting the figures).
func (t *Table) RenderCSV(w io.Writer) {
	fmt.Fprintln(w, strings.Join(t.header, ","))
	for _, row := range t.rows {
		fmt.Fprintln(w, strings.Join(row, ","))
	}
}

func pad(s string, width int) string {
	if len(s) >= width {
		return s
	}
	return s + strings.Repeat(" ", width-len(s))
}
