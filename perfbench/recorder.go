package main

import (
	"math"
	"slices"
	"sync"
	"time"
)

// recorder keeps every latency sample of one operation kind, so quantiles
// are exact order statistics rather than bucket bounds. A run records at
// most a few hundred thousand samples, which is a few megabytes.
type recorder struct {
	mu      sync.Mutex
	samples []time.Duration
	sorted  bool
}

func (r *recorder) add(d time.Duration) {
	r.mu.Lock()
	r.samples = append(r.samples, d)
	r.sorted = false
	r.mu.Unlock()
}

func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.samples)
}

// quantile returns the nearest-rank q-quantile: the smallest sample x such
// that at least ceil(q*n) samples are <= x. It returns 0 with no samples.
func (r *recorder) quantile(q float64) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.samples)
	if n == 0 {
		return 0
	}
	if !r.sorted {
		slices.Sort(r.samples)
		r.sorted = true
	}
	return r.samples[rankIndex(q, n)]
}

// rankIndex is the 0-based position of the nearest-rank q-quantile among n
// sorted samples.
func rankIndex(q float64, n int) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// ms renders a duration in milliseconds with full precision.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// us renders a duration in microseconds with full precision.
func us(d time.Duration) float64 { return float64(d) / 1e3 }
