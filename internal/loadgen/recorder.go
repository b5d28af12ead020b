package loadgen

import (
	"math"
	"slices"
	"sync"
	"time"
)

// Recorder keeps every latency sample, so quantiles are exact. A run
// holds one 8-byte sample per measured request.
type Recorder struct {
	mu      sync.Mutex
	samples []time.Duration
	sum     time.Duration
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Observe records one latency. Negative values (clock skew) clamp to
// zero.
func (r *Recorder) Observe(d time.Duration) {
	d = max(d, 0)
	r.mu.Lock()
	r.samples = append(r.samples, d)
	r.sum += d
	r.mu.Unlock()
}

// Quantile returns the nearest-rank latency at quantile q in [0,1]: the
// smallest sample with at least a q share of samples at or below it.
func (r *Recorder) Quantile(q float64) time.Duration {
	sorted, _ := r.sorted()
	return quantile(sorted, q)
}

// sorted returns a sorted copy of the samples, and their sum.
func (r *Recorder) sorted() ([]time.Duration, time.Duration) {
	r.mu.Lock()
	s, sum := slices.Clone(r.samples), r.sum
	r.mu.Unlock()
	slices.Sort(s)
	return s, sum
}

func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// LatencyStats is the quantile summary of a recorder, in milliseconds
// (the report's wire unit).
type LatencyStats struct {
	P50  float64 `json:"p50_ms"`
	P90  float64 `json:"p90_ms"`
	P99  float64 `json:"p99_ms"`
	P999 float64 `json:"p999_ms"`
	Max  float64 `json:"max_ms"`
	Mean float64 `json:"mean_ms"`
	N    uint64  `json:"count"`
}

// Snapshot returns one consistent quantile summary.
func (r *Recorder) Snapshot() LatencyStats {
	sorted, sum := r.sorted()
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	st := LatencyStats{
		P50:  ms(quantile(sorted, 0.50)),
		P90:  ms(quantile(sorted, 0.90)),
		P99:  ms(quantile(sorted, 0.99)),
		P999: ms(quantile(sorted, 0.999)),
		Max:  ms(quantile(sorted, 1)),
		N:    uint64(len(sorted)),
	}
	if len(sorted) > 0 {
		st.Mean = ms(sum) / float64(len(sorted))
	}
	return st
}
