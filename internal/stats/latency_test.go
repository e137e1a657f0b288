package stats

import (
	"testing"
	"time"
)

// TestLatencyHistogramPercentilesNeverExceedMax: percentile p is the
// upper bound of the bucket holding the ⌈p·n⌉-th observation, clamped
// to the observed maximum. Observations all at 31 ms share the
// (20, 50] ms bucket and must read 31, not 50; a quantile whose bucket
// bound lies below the maximum keeps the bound. The {3, 3, 3, 31} row
// fails a ⌊p·n⌋-th rank (p90 and p99 would read 5) and the ten-sample
// row a (⌊p·n⌋+1)-th one (p50 would read 100).
func TestLatencyHistogramPercentilesNeverExceedMax(t *testing.T) {
	const ms = time.Millisecond
	for _, tc := range []struct {
		obs                []time.Duration
		p50, p90, p99, max float64
	}{
		{nil, 0, 0, 0, 0},
		{[]time.Duration{31 * ms, 31 * ms, 31 * ms}, 31, 31, 31, 31},
		{[]time.Duration{3 * ms, 3 * ms, 3 * ms, 31 * ms}, 5, 31, 31, 31},
		{[]time.Duration{ms, ms, ms, ms, ms, 100 * ms, 100 * ms, 100 * ms, 100 * ms, 100 * ms}, 1, 100, 100, 100},
		{[]time.Duration{621 * ms, 621 * ms, 621 * ms}, 621, 621, 621, 621},
		{[]time.Duration{5 * ms, 7 * ms, 621 * ms}, 10, 621, 621, 621},
		{[]time.Duration{7 * time.Second}, 7000, 7000, 7000, 7000},
		{[]time.Duration{40 * time.Second}, 40000, 40000, 40000, 40000},
	} {
		var h LatencyHistogram
		for _, d := range tc.obs {
			h.Observe(d)
		}
		s := h.Summary()
		if s.Count != uint64(len(tc.obs)) || s.P50Ms != tc.p50 || s.P90Ms != tc.p90 || s.P99Ms != tc.p99 || s.MaxMs != tc.max {
			t.Fatalf("%v: count %d p50 %g p90 %g p99 %g max %g, want p50 %g p90 %g p99 %g max %g",
				tc.obs, s.Count, s.P50Ms, s.P90Ms, s.P99Ms, s.MaxMs, tc.p50, tc.p90, tc.p99, tc.max)
		}
	}
}
