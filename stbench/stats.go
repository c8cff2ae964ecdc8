package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// quartiles returns the first and third quartile by the method Python's
// statistics.quantiles(xs, n=4) uses by default ("exclusive"), so figures
// printed here match a Python reading of the same values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld == 0 {
		return 0, 0
	}
	if ld == 1 {
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		j = min(max(j, 1), ld-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// geomean returns the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// rateWindow is how many consecutive operations one throughput window holds.
const rateWindow = 32

// windowedRate splits a sequence of operation durations into consecutive
// windows of rateWindow operations (one window if there are fewer) and
// returns the median over windows of operations per second of operation
// time. A time slice the host takes from the guest lands inside one
// sub-millisecond request and adds a millisecond to it; short windows keep
// those stalls in a minority of windows, where the median leaves them,
// while a total or a mean over the run counts every one of them.
func windowedRate(durs []time.Duration) float64 {
	if len(durs) == 0 {
		return 0
	}
	size := min(rateWindow, len(durs))
	var rates []float64
	for i := 0; i+size <= len(durs); i += size {
		var sum time.Duration
		for _, d := range durs[i : i+size] {
			sum += d
		}
		rates = append(rates, float64(size)/sum.Seconds())
	}
	return median(rates)
}

// micros converts durations to float microseconds.
func micros(durs []time.Duration) []float64 {
	out := make([]float64, len(durs))
	for i, d := range durs {
		out[i] = float64(d.Nanoseconds()) / 1e3
	}
	return out
}
