// Package workload picks keys for load generators: uniform and YCSB-style
// zipfian choosers over a key space of n indices, and the canonical key name
// for an index. The bench harness draws its workload keys from it.
package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// KeyChooser selects the next key index for one worker. Implementations
// are not safe for concurrent use: give each worker its own chooser.
type KeyChooser interface {
	Next() int
}

// UniformChooser draws keys uniformly from [0, n).
type UniformChooser struct {
	n   int
	rng *rand.Rand
}

// NewUniformChooser returns a uniform chooser over n keys.
func NewUniformChooser(n int, seed int64) *UniformChooser {
	if n < 1 {
		n = 1
	}
	return &UniformChooser{n: n, rng: rand.New(rand.NewSource(seed))}
}

// Next implements KeyChooser.
func (u *UniformChooser) Next() int { return u.rng.Intn(u.n) }

// ZipfianChooser draws keys from the YCSB-style zipfian distribution over
// [0, n): key 0 is the hottest, with skew parameter theta in (0, 1) —
// theta 0.99 is the YCSB default. It implements Gray et al.'s rejection-free
// quick zipfian ("Quickly generating billion-record synthetic databases"),
// which is also the generator YCSB itself ships.
type ZipfianChooser struct {
	n     int
	theta float64
	alpha float64
	zetan float64
	eta   float64
	rng   *rand.Rand
}

// NewZipfianChooser returns a zipfian chooser over n keys with the given
// theta. Theta values outside (0, 1) are clamped to the YCSB default 0.99.
func NewZipfianChooser(n int, theta float64, seed int64) *ZipfianChooser {
	if n < 1 {
		n = 1
	}
	if theta <= 0 || theta >= 1 {
		theta = 0.99
	}
	z := &ZipfianChooser{
		n:     n,
		theta: theta,
		alpha: 1 / (1 - theta),
		zetan: zeta(n, theta),
		rng:   rand.New(rand.NewSource(seed)),
	}
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2, theta)/z.zetan)
	return z
}

// zeta computes the generalized harmonic number sum_{i=1..n} 1/i^theta.
func zeta(n int, theta float64) float64 {
	var sum float64
	for i := 1; i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next implements KeyChooser.
func (z *ZipfianChooser) Next() int {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	return int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// Key renders the canonical key name for index i.
func Key(i int) string { return fmt.Sprintf("key-%06d", i) }
