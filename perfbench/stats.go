package main

import (
	"math"
	"sort"
	"time"
)

// tailBeyond is how many samples must lie beyond the tail percentile.
const tailBeyond = 10

// latencySummary is the latency distribution of one run's ops.
type latencySummary struct {
	N      int     `json:"n"`
	P50MS  float64 `json:"p50_ms"`
	TailMS float64 `json:"tail_ms"`
	// TailPct is the percentile TailMS sits at: the highest with at
	// least tailBeyond samples above it, never below the median.
	TailPct float64 `json:"tail_pct"`
}

// summarize computes the median and tail of a latency sample.
func summarize(lat []time.Duration) latencySummary {
	n := len(lat)
	if n == 0 {
		return latencySummary{}
	}
	ms := make([]float64, n)
	for i, d := range lat {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	k := tailRank(n)
	return latencySummary{
		N:       n,
		P50MS:   median(ms),
		TailMS:  ms[k],
		TailPct: 100 * float64(k+1) / float64(n),
	}
}

// tailRank is the 0-based rank of the tail sample in an ascending sample
// of n: the highest rank with at least tailBeyond samples above it, but
// never below the median rank, so a short run reports its median rather
// than a percentile under it.
func tailRank(n int) int {
	return max(n-1-tailBeyond, (n-1)/2)
}

// median of an ascending sample.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// medianOf sorts a copy of xs and returns its median.
func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return median(s)
}

// geomean of positive values; 0 when xs is empty or holds a
// non-positive value.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
