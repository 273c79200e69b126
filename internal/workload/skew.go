package workload

import (
	"math"
	"math/rand"
)

// skewPicker samples indices 0..n-1 with power-law weights
// w_i = 1/(i+1)^theta (theta 0 = uniform). It models the skewed
// transaction mixes of commercial workloads while allowing theta < 1,
// which math/rand's Zipf sampler does not.
type skewPicker struct {
	cum []float64
}

func newSkewPicker(n int, theta float64) *skewPicker {
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += math.Pow(float64(i+1), -theta)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &skewPicker{cum: cum}
}

// skewFinite reports whether newSkewPicker's weights over n >= 1 types
// sum to a finite total. The total is at most n times the largest weight
// (n^-theta when theta < 0, else 1); keeping that bound under half the
// float64 range leaves room for the running sum's rounding as well.
func skewFinite(n int, theta float64) bool {
	w := 1.0
	if theta < 0 {
		w = math.Pow(float64(n), -theta)
	}
	return float64(n)*w < math.MaxFloat64/2
}

func (s *skewPicker) pick(rng *rand.Rand) int {
	r := rng.Float64()
	lo, hi := 0, len(s.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if s.cum[mid] < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
