package main

import (
	"math"
	"sort"
	"time"
)

// percentile is one reported quantile with the evidence behind it.
type percentile struct {
	P     float64 // the percentile actually reported, in (0, 100)
	Value float64
	N     int // samples it was taken over
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tail reports the want-th percentile of sorted by nearest rank, or,
// when fewer than minBeyond samples would lie beyond it, the highest
// percentile that still has minBeyond beyond it. Nearest rank makes
// "beyond" exact: the value at rank k has n-k samples above it.
func tail(sorted []float64, want float64) percentile {
	n := len(sorted)
	if n == 0 {
		return percentile{P: want, Value: math.NaN()}
	}
	p := want
	if most := 100 * (1 - float64(minBeyond)/float64(n)); p > most {
		p = math.Max(most, 0)
	}
	return percentile{P: p, Value: rank(sorted, p), N: n}
}

// rank is the nearest-rank p-th percentile of sorted. The epsilon keeps
// a product that should be a whole number, such as 0.98·500, from
// rounding up to the next rank in floating point.
func rank(sorted []float64, p float64) float64 {
	k := int(math.Ceil(p/100*float64(len(sorted)) - 1e-9))
	if k < 1 {
		k = 1
	}
	return sorted[k-1]
}

// median of an unsorted slice, interpolating between the middle two.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, and 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
