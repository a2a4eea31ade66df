package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; xs need not be sorted.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles matches Python's statistics.quantiles(xs, n=4) with its
// default "exclusive" method, the definition the steadiness check and
// its bounds are stated in.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(j int) float64 {
		m := float64(n + 1)
		pos := float64(j) * m / 4
		i := int(math.Floor(pos))
		frac := pos - float64(i)
		// i is 1-based; clamp to the sample range as Python does.
		if i < 1 {
			return s[0]
		}
		if i >= n {
			return s[n-1]
		}
		return s[i-1] + (s[i]-s[i-1])*frac
	}
	return q(1), q(2), q(3)
}

// minRoundsFor returns the round count at which percentile p has ten
// samples beyond it.
func minRoundsFor(p float64) int {
	return int(math.Ceil(10/(1-p/100) - 1e-9))
}
