package metrics

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// Server-side counters for the concurrent serving layer. Unlike Summary
// (which aggregates one simulated client's measurements single-threadedly),
// ServerStats is written from many goroutines at once, so every field is an
// atomic and the latency distribution is a fixed-bucket histogram of atomic
// counters.

// histBuckets is the number of exponential latency buckets: bucket i covers
// (2^(i-1), 2^i] microseconds, with bucket 0 covering (0, 1µs] and the last
// bucket absorbing everything slower (~67s and up).
const histBuckets = 27

// Histogram is a lock-free latency histogram with exponential bucket bounds.
// The zero value is ready to use; all methods are safe for concurrent use.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	sum    atomic.Int64 // nanoseconds
}

// bucketFor maps a duration to its bucket index: ceil(log2(microseconds)),
// with the microsecond count rounded up so a duration never lands in a
// bucket whose upper bound is below it (Quantile never reports past the
// crossing bucket's upper edge).
func bucketFor(d time.Duration) int {
	us := int64((d + time.Microsecond - 1) / time.Microsecond)
	if us <= 1 {
		return 0
	}
	b := bits.Len64(uint64(us - 1)) // ceil(log2(us)) for us >= 2
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// bucketUpper returns the inclusive upper bound of bucket i.
func bucketUpper(i int) time.Duration {
	return time.Duration(1<<uint(i)) * time.Microsecond
}

// Observe records one measurement.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketFor(d)].Add(1)
	h.sum.Add(int64(d))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Mean returns the average observed duration.
func (h *Histogram) Mean() time.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Quantile estimates the q-quantile (0 < q <= 1) of the observed durations
// by locating the bucket where the cumulative count crosses q and
// interpolating linearly inside it by rank position, assuming observations
// are spread uniformly across the bucket. The estimate never exceeds the
// crossing bucket's upper edge, so with base-2 buckets it stays within 2x
// of the true value — and two distributions whose quantile falls in the
// same bucket still report distinguishable values instead of both snapping
// to the shared upper edge.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.Count()
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			var lower time.Duration
			if i > 0 {
				lower = bucketUpper(i - 1)
			}
			frac := float64(rank-cum) / float64(c)
			return lower + time.Duration(frac*float64(bucketUpper(i)-lower))
		}
		cum += c
	}
	return bucketUpper(histBuckets - 1)
}

// ServerStats aggregates the serving-layer counters: connection churn,
// request volume, and request latency. All fields and methods are safe for
// concurrent use; the zero value is ready.
type ServerStats struct {
	// ActiveConns is the number of currently open client connections.
	ActiveConns atomic.Int64
	// TotalConns counts every accepted connection.
	TotalConns atomic.Int64
	// RejectedConns counts connections turned away at the MaxConns limit.
	RejectedConns atomic.Int64
	// EdgeConns is the number of currently open connections that announced
	// the edge-proxy handshake role (a subset of ActiveConns).
	EdgeConns atomic.Int64
	// Requests counts requests served (including ones that returned an
	// application error to the client).
	Requests atomic.Int64
	// Errors counts requests whose handler returned an error.
	Errors atomic.Int64
	// BytesIn counts bytes read from client connections, measured at the
	// socket boundary (framing and handshake included).
	// Together with BytesOut it is the real-traffic counterpart of the
	// wire.SizeModel byte accounting the experiments use.
	BytesIn atomic.Int64
	// BytesOut counts bytes written to client connections.
	BytesOut atomic.Int64
	// Latency is the request service-time distribution (handler execution,
	// excluding network transfer).
	Latency Histogram
}

// ServerSnapshot is a point-in-time copy of ServerStats, cheap to pass
// around and print.
type ServerSnapshot struct {
	ActiveConns   int64
	TotalConns    int64
	RejectedConns int64
	EdgeConns     int64
	Requests      int64
	// Batches is always 0: the serving layer executes every request on its
	// own. The field stays because perfbench reads it for wire.batched_frac.
	Batches     int64
	Errors      int64
	BytesIn     int64
	BytesOut    int64
	MeanLatency time.Duration
	P50         time.Duration
	P99         time.Duration
	P999        time.Duration
}

// Snapshot captures the current counter values and latency quantiles.
func (s *ServerStats) Snapshot() ServerSnapshot {
	return ServerSnapshot{
		ActiveConns:   s.ActiveConns.Load(),
		TotalConns:    s.TotalConns.Load(),
		RejectedConns: s.RejectedConns.Load(),
		EdgeConns:     s.EdgeConns.Load(),
		Requests:      s.Requests.Load(),
		Errors:        s.Errors.Load(),
		BytesIn:       s.BytesIn.Load(),
		BytesOut:      s.BytesOut.Load(),
		MeanLatency:   s.Latency.Mean(),
		P50:           s.Latency.Quantile(0.50),
		P99:           s.Latency.Quantile(0.99),
		P999:          s.Latency.Quantile(0.999),
	}
}

// String renders the snapshot as a one-line status report.
func (s ServerSnapshot) String() string {
	return fmt.Sprintf("conns=%d/%d rejected=%d requests=%d errors=%d in=%dB out=%dB latency mean=%v p50=%v p99=%v p999=%v",
		s.ActiveConns, s.TotalConns, s.RejectedConns, s.Requests, s.Errors,
		s.BytesIn, s.BytesOut,
		s.MeanLatency.Round(time.Microsecond), s.P50, s.P99, s.P999)
}
