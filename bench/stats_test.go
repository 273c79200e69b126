package main

import (
	"math"
	"testing"
)

func TestQuantileMatchesPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.25, 2.75}, {0.5, 5.5}, {0.75, 8.25}} {
		if got := quantile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Where the exclusive method would extrapolate, the result clamps to
	// the sample range.
	if got := quantile([]float64{1, 2}, 0.75); got != 2 {
		t.Errorf("quantile([1 2], 0.75) = %v, want 2", got)
	}
	if got := quantile([]float64{7}, 0.25); got != 7 {
		t.Errorf("quantile([7], 0.25) = %v, want 7", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples is not NaN")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {39, 0}, {40, 0.75}, {99, 0.75}, {100, 0.9},
		{200, 0.95}, {999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	s := summarize(xs)
	if s.N != 100 || s.Mean != 50.5 || s.Median != 50.5 || s.TailP != 0.9 || math.Abs(s.Tail-90.9) > 1e-9 {
		t.Errorf("summarize(100..1) = %+v", s)
	}
	if xs[0] != 100 {
		t.Error("summarize sorted its input")
	}
}

func TestVerdict(t *testing.T) {
	lower := func(med, q1, q3 float64) MetricV1 {
		return MetricV1{Better: "lower", Bound: 0.1, N: 10, Median: med, Q1: q1, Q3: q3}
	}
	higher := func(med float64) MetricV1 {
		return MetricV1{Better: "higher", Bound: 0.1, N: 10, Median: med, Q1: med - 1, Q3: med + 1}
	}
	single := func(med float64) MetricV1 {
		return MetricV1{Better: "lower", Bound: 0.1, N: 1, Median: med, Q1: med, Q3: med}
	}
	// op_ms is judged by its mean: a slow stretch that leaves the median
	// in place still moves it.
	opMS := func(mean float64) MetricV1 {
		return MetricV1{Name: "op_ms", Better: "lower", Bound: 0.1, N: 10, Mean: mean, Median: 100, Q1: 99, Q3: 101}
	}
	for _, c := range []struct {
		name string
		a, b MetricV1
		want string
	}{
		{"within bound", lower(100, 99, 101), lower(105, 104, 106), verdictOK},
		{"better", lower(100, 99, 101), lower(80, 79, 81), verdictOK},
		{"worse", lower(100, 99, 101), lower(115, 114, 116), verdictWorse},
		{"noisy reference", lower(100, 80, 120), lower(101, 100, 102), verdictUnresolved},
		{"noisy change", lower(100, 99, 101), lower(130, 100, 160), verdictUnresolved},
		{"higher is better, dropped", higher(100), higher(85), verdictWorse},
		{"higher is better, rose", higher(100), higher(130), verdictOK},
		{"one sample of the reference", single(100), lower(150, 149, 151), verdictUnresolved},
		{"one sample of the change", lower(100, 99, 101), single(150), verdictUnresolved},
		{"mean within bound", opMS(100), opMS(105), verdictOK},
		{"mean worse, median unchanged", opMS(100), opMS(115), verdictWorse},
		{"no bound", MetricV1{Better: "lower", Median: 1}, MetricV1{Better: "lower", Median: 9}, verdictInfo},
	} {
		if got := verdict(c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}
