package benchutil

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSummarizeEmpty(t *testing.T) {
	t.Parallel()
	s := NewLatencyRecorder().Summarize()
	if s.Count != 0 || s.Mean != 0 || s.P95 != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestSummarizeKnownDistribution(t *testing.T) {
	t.Parallel()
	rec := NewLatencyRecorder()
	for i := 1; i <= 100; i++ {
		rec.Record(time.Duration(i) * time.Millisecond)
	}
	s := rec.Summarize()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.P50 != 50*time.Millisecond {
		t.Fatalf("p50 = %v, want 50ms", s.P50)
	}
	if s.P95 != 95*time.Millisecond {
		t.Fatalf("p95 = %v, want 95ms", s.P95)
	}
	if s.Mean != 50500*time.Microsecond {
		t.Fatalf("mean = %v, want 50.5ms", s.Mean)
	}
}

func TestSummarizeSingleSample(t *testing.T) {
	t.Parallel()
	rec := NewLatencyRecorder()
	rec.Record(7 * time.Millisecond)
	s := rec.Summarize()
	if s.P50 != 7*time.Millisecond || s.P95 != 7*time.Millisecond || s.Mean != 7*time.Millisecond {
		t.Fatalf("summary = %+v", s)
	}
}

func TestTimeRecordsOnlySuccesses(t *testing.T) {
	t.Parallel()
	rec := NewLatencyRecorder()
	if err := rec.Time(func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	wantErr := errors.New("op failed")
	if err := rec.Time(func() error { return wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
	if n := rec.Summarize().Count; n != 1 {
		t.Fatalf("count = %d, want 1 (failures not recorded)", n)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	t.Parallel()
	rec := NewLatencyRecorder()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				rec.Record(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if n := rec.Summarize().Count; n != 1600 {
		t.Fatalf("count = %d", n)
	}
}

func TestTableRender(t *testing.T) {
	t.Parallel()
	tb := NewTable("name", "value", "latency")
	tb.AddRow("alpha", 42, 1500*time.Microsecond)
	tb.AddRow("a-much-longer-name", 3.14159, time.Second)
	var sb strings.Builder
	tb.Render(&sb)
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("rendered %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "name") || !strings.Contains(lines[0], "latency") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "---") {
		t.Fatalf("separator = %q", lines[1])
	}
	if !strings.Contains(out, "3.142") {
		t.Fatalf("float not formatted to 3 decimals:\n%s", out)
	}
	if !strings.Contains(out, "1.5ms") {
		t.Fatalf("duration not rounded:\n%s", out)
	}
	// Alignment: every data line must be at least as wide as the header.
	if len(lines[2]) < len(lines[0])-2 {
		t.Fatalf("row narrower than header:\n%s", out)
	}
}

func TestTableRenderCSV(t *testing.T) {
	t.Parallel()
	tb := NewTable("a", "b")
	tb.AddRow(1, "x")
	tb.AddRow(2, "y")
	var sb strings.Builder
	tb.RenderCSV(&sb)
	want := "a,b\n1,x\n2,y\n"
	if sb.String() != want {
		t.Fatalf("csv = %q, want %q", sb.String(), want)
	}
}

func TestPercentileBounds(t *testing.T) {
	t.Parallel()
	sorted := []time.Duration{time.Millisecond}
	if got := percentile(sorted, 0.0); got != time.Millisecond {
		t.Fatalf("p0 = %v", got)
	}
	if got := percentile(sorted, 1.0); got != time.Millisecond {
		t.Fatalf("p100 = %v", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Fatalf("empty percentile = %v", got)
	}
}
