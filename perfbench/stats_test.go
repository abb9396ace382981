package main

import (
	"math"
	"testing"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	// p99 of 1000 samples is the 990th; ten lie above it. Of 999 samples
	// it is still the 990th, with only nine above.
	if !supported(1000, 0.99) {
		t.Error("p99 of 1000 samples should be supported")
	}
	if supported(999, 0.99) {
		t.Error("p99 of 999 samples should not be supported")
	}
	if got := highestTail(1000); got != 0.99 {
		t.Errorf("highestTail(1000) = %v, want 0.99", got)
	}
	if got := highestTail(999); got != 0.9 {
		t.Errorf("highestTail(999) = %v, want 0.9", got)
	}
	if got := highestTail(10); got != 0 {
		t.Errorf("highestTail(10) = %v, want 0 (not even the median has ten above it)", got)
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	if h.quantile(0.5) != 0 {
		t.Error("quantile of no samples should be 0")
	}
	for i := 1; i <= 1000; i++ {
		h.add(float64(i))
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500}, {0.99, 990}, {0.999, 999}, {1, 1000}, {0, 1}} {
		got := h.quantile(c.q)
		if math.Abs(got-c.want) > c.want/histSub {
			t.Errorf("quantile(1..1000, %v) = %v, want %v within 1/%d", c.q, got, c.want, histSub)
		}
	}
	l := h.summary()
	if l.Count != 1000 || l.TailQ != 0.99 || l.TailVal != l.P99 {
		t.Errorf("summary = %+v", l)
	}

	h.reset()
	if h.n.Load() != 0 || h.quantile(1) != 0 {
		t.Errorf("after reset: %d samples, max %v", h.n.Load(), h.quantile(1))
	}

	var edges hist
	for _, v := range []float64{0, -1, 1e-9, 1e12} {
		edges.add(v)
	}
	if edges.quantile(0.75) != 0 || edges.quantile(1) < 1e8 {
		t.Errorf("out-of-range samples: p75 %v, max %v", edges.quantile(0.75), edges.quantile(1))
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if xs[0] != 4 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{5, 1, 9}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}
