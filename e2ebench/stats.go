package main

import (
	"math"
	"sort"
)

// median of xs (0 for none); xs is not modified.
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

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// minBeyond is how many samples must lie beyond a reported tail.
const minBeyond = 10

// tailLadder are the percentiles a tail may be reported at, highest
// first. The ladder stops at p99: over a closed-loop window of ~35000
// template documents, the highest percentile with ten samples beyond it
// was p99.97, and that reading moved 36% between seeds.
var tailLadder = []float64{99, 95, 90, 75, 50}

// tail is the highest ladder percentile of xs that still has minBeyond
// samples beyond it (by nearest rank). It returns the value, the
// percentile and the sample count; with too few samples for any rung the
// maximum stands in, at percentile 100.
func tail(xs []float64) (value, pct float64, n int) {
	n = len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := sorted(xs)
	for _, p := range tailLadder {
		k := int(math.Ceil(p / 100 * float64(n))) // 1-based nearest rank
		if n-k >= minBeyond {
			return s[max(k, 1)-1], p, n
		}
	}
	return s[n-1], 100, n
}

// tailStretch is the fewest samples in a stretch of the window when the
// tail is taken per stretch: enough for p99 with minBeyond beyond it.
const tailStretch = 100 * minBeyond

// stretchTail is the tail of a window that holds at least two stretches
// of tailStretch consecutive samples: the window is cut into equal
// stretches, and the tail of each goes into a median over them. A stall
// of the host delays a few hundred documents at once, which lifts a
// whole-window p99 with it; the median moves only when most stretches
// stall. A shorter window is a single stretch. It returns the value, the
// stretches' percentile, the samples in the smallest stretch and the
// number of stretches.
func stretchTail(xs []float64) (value, pct float64, per, stretches int) {
	k := len(xs) / tailStretch
	if k < 2 {
		v, p, n := tail(xs)
		return v, p, n, 1
	}
	var tails []float64
	pct, per = 100, len(xs)
	for j := 0; j < k; j++ {
		v, p, n := tail(xs[j*len(xs)/k : (j+1)*len(xs)/k])
		tails = append(tails, v)
		pct, per = min(pct, p), min(per, n)
	}
	return median(tails), pct, per, k
}
