package main

import (
	"math"
	"sort"
)

// summary describes one metric's samples: the mean, the median and
// quartiles, and the highest tail percentile that still has at least ten
// samples beyond it (TailP 0 when there are too few samples for any).
type summary struct {
	N      int
	Mean   float64
	Median float64
	Q1, Q3 float64
	TailP  float64
	Tail   float64
}

// tailLadder is the set of tail percentiles a summary may report, highest
// first.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.75}

// minBeyondTail is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyondTail = 10

// quantile returns the p-quantile (0 < p < 1) of sorted samples by the
// exclusive method — the default of Python's statistics.quantiles, which
// is how the quartiles of repeated runs are judged — clamped to the
// sample range instead of extrapolating past it.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	h := p * float64(n+1)
	if h <= 1 {
		return sorted[0]
	}
	if h >= float64(n) {
		return sorted[n-1]
	}
	j := int(h)
	return sorted[j-1] + (h-float64(j))*(sorted[j]-sorted[j-1])
}

// tailPercentile returns the highest percentile of tailLadder with at
// least minBeyondTail of n samples beyond it, or 0 when none has.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if math.Floor(float64(n)*(1-p)+1e-9) >= minBeyondTail {
			return p
		}
	}
	return 0
}

// summarize computes the summary of xs (which it does not modify).
func summarize(xs []float64) summary {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	sum := 0.0
	for _, x := range sorted {
		sum += x
	}
	s := summary{
		N:      len(sorted),
		Mean:   sum / float64(len(sorted)),
		Median: quantile(sorted, 0.5),
		Q1:     quantile(sorted, 0.25),
		Q3:     quantile(sorted, 0.75),
	}
	if p := tailPercentile(len(sorted)); p > 0 {
		s.TailP, s.Tail = p, quantile(sorted, p)
	}
	return s
}

// Verdicts of compare, per metric.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictInfo       = "info"
)

// relSpread is a summary's interquartile range as a share of its median.
func relSpread(s MetricV1) float64 {
	if s.Median == 0 {
		return math.Inf(1)
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

// relChange is b's value relative to a's.
func relChange(a, b MetricV1) float64 {
	va := a.value()
	if va == 0 {
		return 0
	}
	return (b.value() - va) / math.Abs(va)
}

// worsening returns how much b's value is worse than a's, as a share of
// a's value (negative when b is better).
func worsening(a, b MetricV1) float64 {
	d := relChange(a, b)
	if a.Better == "higher" {
		d = -d
	}
	return d
}

// minVerdictN is the fewest samples a side needs before its spread says
// anything: below it the quartiles collapse onto the median.
const minVerdictN = 3

// verdict judges metric b (the change) against a (the reference): a
// metric without a bound is informational; one with too few samples, or
// whose spread on either side exceeds the bound, cannot be judged;
// otherwise it is worse when its value moved the wrong way by more than
// the bound.
func verdict(a, b MetricV1) string {
	if a.Bound <= 0 {
		return verdictInfo
	}
	if a.N < minVerdictN || b.N < minVerdictN || relSpread(a) > a.Bound || relSpread(b) > a.Bound {
		return verdictUnresolved
	}
	if worsening(a, b) > a.Bound {
		return verdictWorse
	}
	return verdictOK
}
