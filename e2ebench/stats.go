package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailSamples is how many samples lie above the nearest-rank
// q-quantile of n samples; a percentile is reported only when at least
// ten do.
func tailSamples(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a derived metric kept with its base counts.
type ratio struct {
	Num, Den float64
}

func (r ratio) value() float64 {
	if r.Den == 0 {
		return 0
	}
	return r.Num / r.Den
}
