package server

import (
	"testing"
	"time"

	"milvideo/internal/stats"
	"milvideo/internal/videodb"
)

// TestLatencyHistogramPercentilesNeverExceedMax: the re-rank and
// index-build percentiles a server reports under /v1/stats are the
// upper bound of the bucket holding the nearest-rank (⌈p·n⌉-th)
// observation, clamped to the observed maximum. Observations all at
// 31 ms share the (20, 50] ms bucket and must read 31, not 50; a
// quantile whose bucket bound lies below the maximum keeps the bound.
func TestLatencyHistogramPercentilesNeverExceedMax(t *testing.T) {
	for _, tc := range []struct {
		obs           []time.Duration
		p50, p99, max float64
	}{
		{[]time.Duration{31 * time.Millisecond, 31 * time.Millisecond, 31 * time.Millisecond}, 31, 31, 31},
		{[]time.Duration{3 * time.Millisecond, 3 * time.Millisecond, 3 * time.Millisecond, 31 * time.Millisecond}, 5, 31, 31},
		{[]time.Duration{7 * time.Second}, 7000, 7000, 7000},
	} {
		srv, err := New(Config{DB: videodb.New()})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range tc.obs {
			srv.metrics.Rerank.Observe(d)
			srv.metrics.IndexBuild.Observe(d)
		}
		st := srv.Stats()
		srv.Close()
		for name, s := range map[string]stats.LatencySummary{"rerank": st.RerankLatency, "build": st.Index.BuildLatency} {
			if s.Count != uint64(len(tc.obs)) || s.P50Ms != tc.p50 || s.P99Ms != tc.p99 || s.MaxMs != tc.max || s.P90Ms > s.MaxMs {
				t.Fatalf("%s %v: count %d p50 %g p90 %g p99 %g max %g, want p50 %g p99 %g max %g",
					name, tc.obs, s.Count, s.P50Ms, s.P90Ms, s.P99Ms, s.MaxMs, tc.p50, tc.p99, tc.max)
			}
		}
	}
}
