package workload

import "testing"

func TestUniformChooserCoversKeySpace(t *testing.T) {
	t.Parallel()
	u := NewUniformChooser(8, 1)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		k := u.Next()
		if k < 0 || k >= 8 {
			t.Fatalf("key %d out of range", k)
		}
		seen[k] = true
	}
	if len(seen) != 8 {
		t.Fatalf("uniform chooser visited %d/8 keys", len(seen))
	}
}

func TestZipfianChooserSkewAndRange(t *testing.T) {
	t.Parallel()
	const n, draws = 100, 20000
	z := NewZipfianChooser(n, 0.99, 7)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		k := z.Next()
		if k < 0 || k >= n {
			t.Fatalf("key %d out of range", k)
		}
		counts[k]++
	}
	// Key 0 must be the hottest by a wide margin, and the head must
	// dominate: the top 10 keys of a theta=0.99 zipfian carry well over
	// half the mass.
	var head int
	for _, c := range counts[:10] {
		head += c
	}
	if head < draws/2 {
		t.Fatalf("top-10 keys drew %d/%d operations; distribution not skewed", head, draws)
	}
	if counts[0] < counts[n-1] {
		t.Fatalf("tail key hotter than head: %d vs %d", counts[n-1], counts[0])
	}
}

func TestZipfianChooserDeterministic(t *testing.T) {
	t.Parallel()
	a := NewZipfianChooser(50, 0.99, 3)
	b := NewZipfianChooser(50, 0.99, 3)
	for i := 0; i < 100; i++ {
		if x, y := a.Next(), b.Next(); x != y {
			t.Fatalf("draw %d diverged: %d vs %d", i, x, y)
		}
	}
}
