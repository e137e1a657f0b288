// Package stats provides the summary statistics used across the
// retrieval framework: means, standard deviations, min/max and
// per-dimension feature statistics. The weighted relevance-feedback
// baseline (paper §6.2) derives its feature weights from the inverse
// standard deviation of the relevant examples' features, so these
// helpers sit on its hot path. LatencyHistogram is the fixed-bucket
// latency histogram behind the query server's and the ingest daemon's
// stats.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by routines that need at least one sample.
var ErrEmpty = errors.New("stats: empty input")

// Mean returns the arithmetic mean of xs, or an error when xs is empty.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs)), nil
}

// Variance returns the population variance of xs (dividing by n, not
// n−1); the paper's weighting scheme does not distinguish, and the
// population form is defined even for a single sample.
func Variance(xs []float64) (float64, error) {
	m, err := Mean(xs)
	if err != nil {
		return 0, err
	}
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)), nil
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) (float64, error) {
	v, err := Variance(xs)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// MinMax returns the smallest and largest values of xs.
func MinMax(xs []float64) (min, max float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max, nil
}

// Quantile returns the q-quantile (q in [0,1]) of xs using linear
// interpolation between order statistics. xs is not modified.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stats: quantile %v out of [0,1]", q)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Summary bundles the descriptive statistics of one variable.
type Summary struct {
	N            int
	Mean, StdDev float64
	Min, Max     float64
	Median       float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	m, _ := Mean(xs)
	sd, _ := StdDev(xs)
	min, max, _ := MinMax(xs)
	med, _ := Quantile(xs, 0.5)
	return Summary{N: len(xs), Mean: m, StdDev: sd, Min: min, Max: max, Median: med}, nil
}

// String implements fmt.Stringer for compact experiment logs.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4f sd=%.4f min=%.4f med=%.4f max=%.4f",
		s.N, s.Mean, s.StdDev, s.Min, s.Median, s.Max)
}

// ColumnStats computes per-dimension mean and standard deviation for a
// set of equal-length feature vectors. It is the statistic the
// weighted-RF baseline turns into feature weights. All rows must have
// the same dimensionality.
func ColumnStats(rows [][]float64) (means, stds []float64, err error) {
	if len(rows) == 0 {
		return nil, nil, ErrEmpty
	}
	dim := len(rows[0])
	if dim == 0 {
		return nil, nil, fmt.Errorf("stats: zero-dimensional rows")
	}
	for i, r := range rows {
		if len(r) != dim {
			return nil, nil, fmt.Errorf("stats: row %d has dimension %d, want %d", i, len(r), dim)
		}
	}
	means = make([]float64, dim)
	stds = make([]float64, dim)
	for _, r := range rows {
		for j, v := range r {
			means[j] += v
		}
	}
	n := float64(len(rows))
	for j := range means {
		means[j] /= n
	}
	for _, r := range rows {
		for j, v := range r {
			d := v - means[j]
			stds[j] += d * d
		}
	}
	for j := range stds {
		stds[j] = math.Sqrt(stds[j] / n)
	}
	return means, stds, nil
}

// Accuracy returns the fraction of true values in labels, the paper's
// §6.2 "accuracy" measure when applied to the relevance labels of the
// top-n returned video sequences.
func Accuracy(labels []bool) (float64, error) {
	if len(labels) == 0 {
		return 0, ErrEmpty
	}
	k := 0
	for _, l := range labels {
		if l {
			k++
		}
	}
	return float64(k) / float64(len(labels)), nil
}
