package ingestd

import (
	"sync"
	"time"
)

// stalenessBounds are the histogram bucket upper bounds in
// milliseconds. Queryable staleness is dominated by pipeline
// processing (hundreds of milliseconds per segment at the default
// sizes), so the buckets resolve that range and leave headroom for
// queue waits under backpressure.
var stalenessBounds = []float64{10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000}

// histogram is a fixed-bucket latency histogram with an exact
// maximum. The daemon cannot reuse the server package's histogram —
// the import points the other way — so it keeps its own, with the
// same percentile estimate: the upper bound of the bucket holding
// the quantile, clamped to the observed maximum.
type histogram struct {
	mu     sync.Mutex
	counts []uint64 // len(stalenessBounds)+1; last is overflow
	total  uint64
	maxMs  float64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]uint64, len(stalenessBounds)+1)}
}

func (h *histogram) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	h.mu.Lock()
	defer h.mu.Unlock()
	i := 0
	for i < len(stalenessBounds) && ms > stalenessBounds[i] {
		i++
	}
	h.counts[i]++
	h.total++
	if ms > h.maxMs {
		h.maxMs = ms
	}
}

// quantileLocked returns the upper bound of the bucket holding the
// q-quantile observation, or the exact max when that is lower (always
// in the overflow bucket). Both bound the true quantile from above.
func (h *histogram) quantileLocked(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	rank := uint64(q * float64(h.total))
	if rank >= h.total {
		rank = h.total - 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if rank < seen {
			if i < len(stalenessBounds) {
				return min(stalenessBounds[i], h.maxMs)
			}
			return h.maxMs
		}
	}
	return h.maxMs
}

func (h *histogram) summary() StalenessSummary {
	h.mu.Lock()
	defer h.mu.Unlock()
	return StalenessSummary{
		Count: h.total,
		P50Ms: h.quantileLocked(0.50),
		P90Ms: h.quantileLocked(0.90),
		P99Ms: h.quantileLocked(0.99),
		MaxMs: h.maxMs,
	}
}

// StalenessSummary reports the queryable-staleness distribution:
// for each committed segment, the time from source arrival to the
// moment its windows were applied to the live index. Percentiles are
// bucket upper bounds clamped to MaxMs: never below the true quantile
// (conservative) and never above the observed maximum.
type StalenessSummary struct {
	Count uint64  `json:"count"`
	P50Ms float64 `json:"p50_ms"`
	P90Ms float64 `json:"p90_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
}

// Stats is the daemon's lifecycle state as served under /v1/stats.
// Counters are cumulative since daemon start; gauges describe the
// current feed.
type Stats struct {
	// State is "idle" (created), "running", "drained" (source
	// exhausted) or "stopped".
	State    string `json:"state"`
	FeedClip string `json:"feed_clip"`

	// Admission.
	Arrived           uint64 `json:"arrived"`
	Shed              uint64 `json:"shed"`
	BackpressureWaits uint64 `json:"backpressure_waits"`
	SourceErrors      uint64 `json:"source_errors"`

	// Pipeline.
	ProcessFailures  uint64 `json:"process_failures"`
	DegradedSegments uint64 `json:"degraded_segments"`
	EmptySegments    uint64 `json:"empty_segments"`

	// Commit.
	Committed      uint64 `json:"committed"`
	CommitRetries  uint64 `json:"commit_retries"`
	CommitsDropped uint64 `json:"commits_dropped"`

	// Retention.
	Evictions       uint64 `json:"evictions"`
	EvictedSegments uint64 `json:"evicted_segments"`

	// Live-index application.
	IndexApplies  uint64 `json:"index_applies"`
	IndexInserted uint64 `json:"index_inserted"`
	IndexDeleted  uint64 `json:"index_deleted"`
	Compactions   uint64 `json:"compactions"`
	ApplyErrors   uint64 `json:"apply_errors"`

	// Snapshots.
	Snapshots        uint64 `json:"snapshots"`
	SnapshotFailures uint64 `json:"snapshot_failures"`

	// Feed gauges.
	LiveSegments int    `json:"live_segments"`
	LiveVSs      int    `json:"live_vss"`
	FeedFrames   int    `json:"feed_frames"`
	NextSeq      uint64 `json:"next_seq"`

	// Staleness.
	MaxStalenessMs      int64            `json:"max_staleness_ms"`
	StalenessViolations uint64           `json:"staleness_violations"`
	Staleness           StalenessSummary `json:"staleness"`
}
