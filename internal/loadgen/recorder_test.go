package loadgen

import (
	"math"
	"testing"
	"time"
)

// TestRecorderQuantiles checks the nearest-rank quantiles against a
// distribution whose exact quantiles are known.
func TestRecorderQuantiles(t *testing.T) {
	r := NewRecorder()
	add := func(n int, d time.Duration) {
		for i := 0; i < n; i++ {
			r.Observe(d)
		}
	}
	add(5000, 1*time.Millisecond)  // ranks 1..5000
	add(4000, 10*time.Millisecond) // ranks 5001..9000
	add(900, 100*time.Millisecond) // ranks 9001..9900
	add(99, 1*time.Second)         // ranks 9901..9999
	add(1, 10*time.Second)         // rank 10000

	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{
		{0, 1 * time.Millisecond},
		{0.50, 1 * time.Millisecond},
		{0.5001, 10 * time.Millisecond},
		{0.90, 10 * time.Millisecond},
		{0.99, 100 * time.Millisecond},
		{0.999, 1 * time.Second},
		{1, 10 * time.Second},
	} {
		if got := r.Quantile(tc.q); got != tc.want {
			t.Errorf("q%g = %v, want %v", tc.q, got, tc.want)
		}
	}

	st := r.Snapshot()
	want := LatencyStats{P50: 1, P90: 10, P99: 100, P999: 1000, Max: 10000, N: 10000,
		Mean: (5000*1 + 4000*10 + 900*100 + 99*1000 + 1*10000) / 10000.0}
	if math.Abs(st.Mean-want.Mean) > 1e-9 {
		t.Fatalf("mean = %vms, want %vms", st.Mean, want.Mean)
	}
	st.Mean = want.Mean
	if st != want {
		t.Fatalf("snapshot = %+v, want %+v", st, want)
	}
}

func TestRecorderEmptyAndClamp(t *testing.T) {
	r := NewRecorder()
	if r.Quantile(0.99) != 0 {
		t.Fatal("empty recorder should report zero")
	}
	st := r.Snapshot()
	if st.N != 0 || st.Max != 0 || st.Mean != 0 {
		t.Fatalf("empty snapshot not zero: %+v", st)
	}
	r.Observe(-5 * time.Millisecond) // clock skew guard: clamps to zero
	r.Observe(10 * time.Minute)
	if got := r.Quantile(0); got != 0 {
		t.Fatalf("min = %v, want the clamped 0", got)
	}
	if got := r.Quantile(1); got != 10*time.Minute {
		t.Fatalf("max = %v, want 10m", got)
	}
	if st := r.Snapshot(); st.Mean != 5*60*1000 {
		t.Fatalf("mean = %vms, want 300000ms (the negative sample counts as 0)", st.Mean)
	}
}

// TestRecorderConcurrent exercises Observe/Quantile under the race
// detector.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder()
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			for i := 0; i < 1000; i++ {
				r.Observe(time.Duration(w*i) * time.Microsecond)
			}
			done <- struct{}{}
		}(w)
	}
	for i := 0; i < 100; i++ {
		r.Quantile(0.99)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	if st := r.Snapshot(); st.N != 4000 {
		t.Fatalf("count = %d, want 4000", st.N)
	}
}
