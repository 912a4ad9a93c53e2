package main

import (
	"math/rand"
	"testing"
	"time"
)

// TestRecorderQuantilesExact checks recorder quantiles against a reference
// computed independently: the q-quantile is the smallest value v with
// count(samples <= v) >= q*n.
func TestRecorderQuantilesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 7, 100, 1001, 2500} {
		var r recorder
		vals := make([]time.Duration, n)
		for i := range vals {
			// Heavy-tailed: the regime where base-2 buckets err most.
			vals[i] = time.Duration(rng.ExpFloat64()*rng.ExpFloat64()*1e6) + 1
			r.add(vals[i])
		}
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			got := r.quantile(q)
			if want := referenceQuantile(vals, q); got != want {
				t.Fatalf("n=%d q=%v: got %v, want %v", n, q, got, want)
			}
		}
		if r.count() != n {
			t.Fatalf("count %d, want %d", r.count(), n)
		}
	}
}

// referenceQuantile scans every candidate instead of sorting.
func referenceQuantile(vals []time.Duration, q float64) time.Duration {
	need := q * float64(len(vals))
	best := time.Duration(-1)
	for _, v := range vals {
		le := 0
		for _, w := range vals {
			if w <= v {
				le++
			}
		}
		if float64(le) >= need && le >= 1 && (best < 0 || v < best) {
			best = v
		}
	}
	return best
}

func TestRecorderEmpty(t *testing.T) {
	var r recorder
	if r.quantile(0.5) != 0 {
		t.Fatal("empty recorder must report 0")
	}
}
