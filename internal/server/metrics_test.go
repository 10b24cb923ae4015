package server

import (
	"testing"
	"time"
)

// TestHistogramQuantileNearestRank pins p50/p95 to the nearest-rank
// definition: the q-quantile of n samples is the ceil(q·n)-th smallest.
// Sample k (1-based) sits alone in bucket k-1 at that bucket's upper bound;
// samples past the last bound land in the overflow bucket, which reports the
// maximum. So the expected estimate is the bound of bucket rank-1, or the
// maximum once the rank reaches the overflow bucket.
func TestHistogramQuantileNearestRank(t *testing.T) {
	sample := func(k int) time.Duration { // k is 1-based
		if k <= len(latencyBounds) {
			return latencyBounds[k-1]
		}
		return latencyBounds[len(latencyBounds)-1] + time.Duration(k)*time.Second
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for _, tc := range []struct {
		n    int
		q    float64
		rank int
	}{
		{n: 1, q: 0.5, rank: 1},
		{n: 1, q: 0.95, rank: 1},
		{n: 2, q: 0.5, rank: 1},
		{n: 2, q: 0.95, rank: 2},
		{n: 3, q: 0.5, rank: 2},
		{n: 3, q: 0.95, rank: 3},
		{n: 10, q: 0.5, rank: 5},
		{n: 10, q: 0.95, rank: 10},
		{n: 20, q: 0.5, rank: 10},
		{n: 20, q: 0.95, rank: 19},
	} {
		var h Histogram
		for k := 1; k <= tc.n; k++ {
			h.Observe(sample(k))
		}
		want := ms(sample(tc.rank))
		if tc.rank > len(latencyBounds) {
			want = ms(sample(tc.n)) // overflow bucket: the maximum
		}
		snap := h.Snapshot()
		got := snap.P50MS
		if tc.q == 0.95 {
			got = snap.P95MS
		}
		if got != want {
			t.Errorf("n=%d q=%.2f: estimate %v ms, want %v ms (sample %d of %d)", tc.n, tc.q, got, want, tc.rank, tc.n)
		}
	}
}
