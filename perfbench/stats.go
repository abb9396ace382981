package main

import (
	"math"
	"sort"
	"sync/atomic"
)

// rank is the zero-based nearest-rank index of the q-quantile of n
// samples: the smallest sample with at least q·n samples at or below it.
func rank(n int64, q float64) int64 {
	idx := int64(math.Ceil(q*float64(n))) - 1
	return max(0, min(idx, n-1))
}

// minBeyond is how many samples must lie strictly above a percentile
// before it is reported: a tail figure resting on fewer is an anecdote.
const minBeyond = 10

// tailLadder lists the percentiles the report considers, lowest first.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// supported reports whether n samples leave at least minBeyond samples
// above the q-quantile.
func supported(n int64, q float64) bool {
	return n > 0 && n-1-rank(n, q) >= minBeyond
}

// highestTail returns the highest percentile of tailLadder that n
// samples support, or 0 when none is.
func highestTail(n int64) float64 {
	best := 0.0
	for _, q := range tailLadder {
		if supported(n, q) {
			best = q
		}
	}
	return best
}

// median returns the median of xs (the mean of the middle pair for an
// even count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// hist counts non-negative samples in log-linear buckets: histSub
// buckets per power of two from 2^histMinExp to 2^histMaxExp, so a
// quantile read from it is within 1/histSub of the sample's value. Its
// size is fixed, so recording samples does not grow the heap the
// benchmark measures. Safe for concurrent use.
type hist struct {
	counts [1 + (histMaxExp-histMinExp)*histSub]atomic.Uint64
	n      atomic.Int64
}

const (
	histSub    = 512
	histMinExp = -10 // ~0.001: smaller samples count as 0
	histMaxExp = 30  // ~1e9: larger samples count as the top bucket
)

func bucket(v float64) int {
	if !(v > 0) {
		return 0
	}
	frac, exp := math.Frexp(v) // v = frac · 2^exp, frac in [0.5, 1)
	e := exp - 1 - histMinExp
	if e < 0 {
		return 0
	}
	if e >= histMaxExp-histMinExp {
		return (histMaxExp - histMinExp) * histSub
	}
	return 1 + e*histSub + int((frac-0.5)*2*histSub)
}

// bucketValue is the midpoint of bucket i.
func bucketValue(i int) float64 {
	if i == 0 {
		return 0
	}
	i--
	e, s := i/histSub, i%histSub
	return math.Ldexp(1+(float64(s)+0.5)/histSub, e+histMinExp)
}

func (h *hist) add(v float64) {
	h.counts[bucket(v)].Add(1)
	h.n.Add(1)
}

// reset empties h. A sample added while it runs may survive it.
func (h *hist) reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.n.Store(0)
}

// quantile returns the q-quantile by nearest rank, or 0 with no samples.
func (h *hist) quantile(q float64) float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	r, seen := rank(n, q), int64(0)
	for i := range h.counts {
		seen += int64(h.counts[i].Load())
		if seen > r {
			return bucketValue(i)
		}
	}
	return bucketValue(len(h.counts) - 1)
}

// latencies summarises a histogram under the percentile rule: the
// median, p99 (the end-to-end tail metric, which the caller must check
// is supported) and the highest supported percentile, with the sample
// count.
type latencies struct {
	Count   int64   `json:"count"`
	P50     float64 `json:"p50"`
	P99     float64 `json:"p99"`
	TailQ   float64 `json:"tail_q"`
	TailVal float64 `json:"tail_value"`
}

func (h *hist) summary() latencies {
	l := latencies{Count: h.n.Load(), P50: h.quantile(0.5), P99: h.quantile(0.99)}
	if l.TailQ = highestTail(l.Count); l.TailQ > 0 {
		l.TailVal = h.quantile(l.TailQ)
	}
	return l
}
