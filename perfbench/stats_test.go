package main

import "testing"

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ q, want float64 }{{0.1, 1}, {0.5, 5}, {0.9, 9}, {1, 10}, {0, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.9); got != 0 {
		t.Errorf("percentile of an empty sample = %v, want 0", got)
	}
	if got := median([]float64{5, 1, 4, 2, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
