package stats

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// latencyBounds are the LatencyHistogram's bucket upper bounds, a
// 1-2-5 ladder from 0.5 ms to 20 s; one unbounded overflow bucket
// follows. 5 s is a bound so that a p99 at the ingest daemon's default
// staleness objective (serve -max-staleness 5s) reads no more than it.
var latencyBounds = [...]time.Duration{
	500 * time.Microsecond,
	time.Millisecond,
	2 * time.Millisecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	20 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	200 * time.Millisecond,
	500 * time.Millisecond,
	time.Second,
	2 * time.Second,
	5 * time.Second,
	10 * time.Second,
	20 * time.Second,
}

// LatencyHistogram is a fixed-bucket latency histogram with an exact
// count, sum and maximum: the one histogram type the query server and
// the ingest daemon export. Buckets keep Observe cheap and
// allocation-free on the hot path. The zero value is ready to use, and
// all methods are safe for concurrent use.
type LatencyHistogram struct {
	mu     sync.Mutex
	counts [len(latencyBounds) + 1]uint64
	count  uint64
	sum    time.Duration
	max    time.Duration
}

// Observe records one sample.
func (h *LatencyHistogram) Observe(d time.Duration) {
	i := sort.Search(len(latencyBounds), func(i int) bool { return d <= latencyBounds[i] })
	h.mu.Lock()
	h.counts[i]++
	h.count++
	h.sum += d
	h.max = max(h.max, d)
	h.mu.Unlock()
}

// LatencySummary is the JSON shape of a LatencyHistogram.
type LatencySummary struct {
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
	// Buckets maps each bucket's upper bound (ms; "+Inf" last) to its
	// count, omitting empty buckets.
	Buckets map[string]uint64 `json:"buckets,omitempty"`
}

// Summary computes the histogram's exported view. Percentile p reads
// the nearest-rank observation, the ⌈p·n⌉-th smallest of n, as the
// upper bound of its bucket clamped to the observed maximum: never
// below that observation and never above MaxMs.
func (h *LatencyHistogram) Summary() LatencySummary {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := LatencySummary{Count: h.count, MaxMs: ms(h.max)}
	if h.count == 0 {
		return s
	}
	s.MeanMs = ms(h.sum) / float64(h.count)
	s.Buckets = make(map[string]uint64)
	for i, c := range h.counts {
		switch {
		case c == 0:
		case i < len(latencyBounds):
			s.Buckets[fmt.Sprintf("%g", ms(latencyBounds[i]))] = c
		default:
			s.Buckets["+Inf"] = c
		}
	}
	q := func(p float64) float64 {
		rank := max(uint64(math.Ceil(p*float64(h.count))), 1)
		var cum uint64
		for i, c := range h.counts[:len(latencyBounds)] {
			cum += c
			if cum >= rank {
				return ms(min(latencyBounds[i], h.max))
			}
		}
		return ms(h.max) // the overflow bucket
	}
	s.P50Ms, s.P90Ms, s.P99Ms = q(0.50), q(0.90), q(0.99)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
