package server

import (
	"testing"
	"time"
)

// TestLatencyHistogramPercentilesNeverExceedMax: percentiles are the
// upper bound of the bucket holding the quantile, clamped to the
// observed maximum. Observations all at 31 ms share the (20, 50] ms
// bucket and must read 31, not 50; a quantile whose bucket bound lies
// below the maximum keeps the bound.
func TestLatencyHistogramPercentilesNeverExceedMax(t *testing.T) {
	for _, tc := range []struct {
		obs           []time.Duration
		p50, p99, max float64
	}{
		{[]time.Duration{31 * time.Millisecond, 31 * time.Millisecond, 31 * time.Millisecond}, 31, 31, 31},
		{[]time.Duration{3 * time.Millisecond, 3 * time.Millisecond, 3 * time.Millisecond, 31 * time.Millisecond}, 5, 5, 31},
		{[]time.Duration{7 * time.Second}, 7000, 7000, 7000},
	} {
		var h LatencyHistogram
		for _, d := range tc.obs {
			h.Observe(d)
		}
		s := h.Summary()
		if s.P50Ms != tc.p50 || s.P99Ms != tc.p99 || s.MaxMs != tc.max || s.P90Ms > s.MaxMs {
			t.Fatalf("%v: p50 %g p90 %g p99 %g max %g, want p50 %g p99 %g max %g",
				tc.obs, s.P50Ms, s.P90Ms, s.P99Ms, s.MaxMs, tc.p50, tc.p99, tc.max)
		}
	}
}
