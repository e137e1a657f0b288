package ingestd

import (
	"testing"
	"time"

	"milvideo/internal/videodb"
)

// TestHistogramQuantilesNeverExceedMax: the staleness percentiles a
// daemon reports in Stats are the upper bound of the bucket holding
// the quantile, clamped to the observed maximum. Three 621 ms
// observations share the (500, 1000] bucket and must read 621, not
// 1000; a quantile whose bucket bound lies below the maximum keeps
// the bound.
func TestHistogramQuantilesNeverExceedMax(t *testing.T) {
	for _, tc := range []struct {
		obs           []float64 // ms
		p50, p99, max float64
	}{
		{[]float64{621, 621, 621}, 621, 621, 621},
		{[]float64{5, 7, 621}, 10, 621, 621},
		{[]float64{40000}, 40000, 40000, 40000},
	} {
		d, err := New(Config{DB: videodb.New(), Source: &SimSource{Frames: 50, Seed: 7, Limit: 1}})
		if err != nil {
			t.Fatal(err)
		}
		for _, ms := range tc.obs {
			d.staleness.Observe(time.Duration(ms * float64(time.Millisecond)))
		}
		s := d.Stats().Staleness
		if s.Count != uint64(len(tc.obs)) || s.P50Ms != tc.p50 || s.P99Ms != tc.p99 || s.MaxMs != tc.max || s.P90Ms > s.MaxMs {
			t.Fatalf("%v ms: count %d p50 %g p90 %g p99 %g max %g, want p50 %g p99 %g max %g",
				tc.obs, s.Count, s.P50Ms, s.P90Ms, s.P99Ms, s.MaxMs, tc.p50, tc.p99, tc.max)
		}
	}
}
