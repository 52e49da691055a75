package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// BenchmarkPaper runs every paper experiment as a sub-benchmark and prints
// its table and notes, the rows EXPERIMENTS.md records. One experiment:
//
//	go test ./internal/experiments -run '^$' -bench 'Paper/e4$' -benchtime 1x
//
// f1–f8 together take about 50 s of simulated-network time, which is why
// they run here and not in the test suite.
func BenchmarkPaper(b *testing.B) {
	for _, id := range IDs() {
		b.Run(id, func(b *testing.B) {
			var res *Result
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = Run(id); err != nil {
					b.Fatal(err)
				}
			}
			fmt.Printf("\n== %s: %s\n\n", strings.ToUpper(res.ID), res.Title)
			res.Table.Render(os.Stdout)
			for _, note := range res.Notes {
				fmt.Printf("  • %s\n", note)
			}
		})
	}
}

func TestIDsStableAndComplete(t *testing.T) {
	t.Parallel()
	ids := IDs()
	want := []string{"e1", "e2", "e3", "e4", "e5", "e6", "f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8"}
	if len(ids) != len(want) {
		t.Fatalf("IDs() = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs()[%d] = %s, want %s", i, ids[i], want[i])
		}
	}
}

func TestRunUnknown(t *testing.T) {
	t.Parallel()
	if _, err := Run("zz"); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("err = %v", err)
	}
}

// TestFastExperimentsProduceRows executes the cheap experiments end to end
// and sanity-checks their tables. The expensive latency figures run through
// BenchmarkPaper.
func TestFastExperimentsProduceRows(t *testing.T) {
	t.Parallel()
	for _, id := range []string{"e2", "e5", "e6"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			res, err := Run(id)
			if err != nil {
				t.Fatal(err)
			}
			if res.ID != id || res.Title == "" {
				t.Fatalf("result metadata: %+v", res)
			}
			var sb strings.Builder
			res.Table.Render(&sb)
			lines := strings.Count(sb.String(), "\n")
			if lines < 3 { // header + separator + >=1 data row
				t.Fatalf("table too small:\n%s", sb.String())
			}
			if len(res.Notes) == 0 {
				t.Fatal("experiment recorded no notes")
			}
		})
	}
}

// TestE2CommRatioNearOne asserts the Theorem 3(ii) reproduction numerically:
// measured/predicted write communication must sit within 5% of 1.
func TestE2CommRatioNearOne(t *testing.T) {
	t.Parallel()
	res, err := Run("e2")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	res.Table.RenderCSV(&sb)
	rows := strings.Split(strings.TrimSpace(sb.String()), "\n")[1:]
	for _, row := range rows {
		fields := strings.Split(row, ",")
		ratio := fields[len(fields)-1]
		if !strings.HasPrefix(ratio, "0.9") && !strings.HasPrefix(ratio, "1.0") {
			t.Errorf("row %q: ratio %s outside [0.9, 1.1)", row, ratio)
		}
	}
}

// TestE4ABDFiveReadWire pins e4's ABD n=5 read column to EXPERIMENTS.md's
// 5.000 MiB (the binary bodies carry 5 × 1 MiB plus a few hundred bytes): a quiescent read moves the value from all five servers, and the
// count must not depend on whether straggler replies landed before the
// counters were read.
func TestE4ABDFiveReadWire(t *testing.T) {
	t.Parallel()
	res, err := Run("e4")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	res.Table.RenderCSV(&sb)
	for _, row := range strings.Split(sb.String(), "\n") {
		if fields := strings.Split(row, ","); fields[0] == "ABD n=5" {
			if read := fields[len(fields)-1]; read != "5.000" {
				t.Fatalf("ABD n=5 read wire = %s MiB, want 5.000", read)
			}
			return
		}
	}
	t.Fatalf("no ABD n=5 row in e4:\n%s", sb.String())
}

func TestKOfN(t *testing.T) {
	t.Parallel()
	cases := map[int]int{3: 2, 5: 4, 7: 5, 9: 6, 11: 8}
	for n, want := range cases {
		if got := kOfN(n); got != want {
			t.Errorf("kOfN(%d) = %d, want %d", n, got, want)
		}
		// The TREAS liveness requirement k > n/3 must hold.
		if 3*kOfN(n) <= n {
			t.Errorf("kOfN(%d) violates k > n/3", n)
		}
	}
}

func TestValueDeterministic(t *testing.T) {
	t.Parallel()
	a, b := value(128, 7), value(128, 7)
	if !a.Equal(b) {
		t.Fatal("value() not deterministic")
	}
	if a.Equal(value(128, 8)) {
		t.Fatal("different seeds produced identical values")
	}
}
