package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must rank beyond a reported tail percentile:
// a percentile with fewer samples behind it is a guess about the maximum,
// not a measurement of the tail.
const minTail = 10

// reqTrim is the share of requests trimmed from each end for req_ms_tmean.
const reqTrim = 0.1

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value (mean of the two middle values for even n);
// NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of xs with no tail requirement,
// for per-layer readings where the sample count is whatever the layer
// produced; NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	k := max(int(math.Ceil(q*float64(len(xs)))), 1)
	return sorted(xs)[k-1]
}

// tailPercentile returns the nearest-rank q-quantile of xs (0 < q < 1),
// refusing when fewer than minTail samples rank beyond it. The run that
// feeds it must be sized to hold at least minTail/(1-q) samples.
func tailPercentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	k := int(math.Ceil(q * float64(n)))
	if k < 1 {
		k = 1
	}
	if beyond := n - k; beyond < minTail {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", 100*q, minTail, beyond, n)
	}
	return quantile(xs, q), nil
}

// samplesFor is the smallest sample count whose q-quantile has minTail
// samples beyond it.
func samplesFor(q float64) int {
	n := minTail
	for {
		if _, err := tailPercentile(make([]float64, n), q); err == nil {
			return n
		}
		n++
	}
}

// trimmedMean is the mean of xs after dropping the lowest and the highest
// share of the sorted samples each (floor of share × n from each end);
// NaN for no samples. Unlike the median of a mix of cheap and costly
// requests, it does not sit in the sparse gap between them, and unlike
// the mean it ignores the few requests a host stall holds up.
func trimmedMean(xs []float64, share float64) float64 {
	s := sorted(xs)
	k := int(share * float64(len(s)))
	return mean(s[k : len(s)-k])
}

// mean of xs; NaN for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
