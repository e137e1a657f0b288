package server

import (
	"expvar"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Metrics is the server's instrumentation: expvar counters for the
// session lifecycle and a latency histogram for re-ranks. Every
// Server owns its own instance (so tests can run many servers in one
// process); the first Server constructed additionally publishes its
// metrics under the process-wide expvar namespace "milserver".
type Metrics struct {
	SessionsLive     expvar.Int
	SessionsCreated  expvar.Int
	SessionsEvicted  expvar.Int
	SessionsExpired  expvar.Int
	SessionsDeleted  expvar.Int
	RoundsServed     expvar.Int
	RequestsRejected expvar.Int

	// Degradation counters: rounds that hit their deadline mid-stall,
	// injected slow and failed re-ranks, and oversized request bodies
	// rejected before parsing.
	RoundsTimedOut expvar.Int
	InjectedSlow   expvar.Int
	InjectedFail   expvar.Int
	BodiesRejected expvar.Int

	// Candidate-index lifecycle: builds actually performed, cache hits
	// that reused one, and the build latency distribution. Under
	// incremental maintenance a generation bump that left the clip's
	// content untouched lands in IndexApplies (a verified no-op delta)
	// instead of a rebuild; IndexRebuilds counts the forced rebuilds
	// where the clip's VSs were genuinely replaced.
	IndexBuilds    expvar.Int
	IndexCacheHits expvar.Int
	IndexApplies   expvar.Int
	IndexRebuilds  expvar.Int
	IndexBuild     LatencyHistogram

	// LiveRounds counts rounds served by live sessions (per-round
	// catalog re-resolution); LiveRetries counts rounds that re-ranked
	// after losing the race with a concurrent live-index apply.
	LiveRounds  expvar.Int
	LiveRetries expvar.Int

	// ScatterServed counts /v1/scatter probes answered (shard
	// workers); ShardForwardErrors counts catalog writes a
	// coordinator failed to relay to a worker.
	ScatterServed      expvar.Int
	ShardForwardErrors expvar.Int

	Rerank LatencyHistogram
}

// publishOnce guards the process-wide expvar registration: expvar
// panics on duplicate names, and tests construct many servers.
var publishOnce sync.Once

func (m *Metrics) publish() {
	publishOnce.Do(func() {
		top := new(expvar.Map).Init()
		top.Set("sessions_live", &m.SessionsLive)
		top.Set("sessions_created", &m.SessionsCreated)
		top.Set("sessions_evicted", &m.SessionsEvicted)
		top.Set("sessions_expired", &m.SessionsExpired)
		top.Set("sessions_deleted", &m.SessionsDeleted)
		top.Set("rounds_served", &m.RoundsServed)
		top.Set("requests_rejected", &m.RequestsRejected)
		top.Set("rounds_timed_out", &m.RoundsTimedOut)
		top.Set("injected_slow_reranks", &m.InjectedSlow)
		top.Set("injected_failed_reranks", &m.InjectedFail)
		top.Set("bodies_rejected", &m.BodiesRejected)
		top.Set("rerank_latency", &m.Rerank)
		top.Set("index_builds", &m.IndexBuilds)
		top.Set("index_cache_hits", &m.IndexCacheHits)
		top.Set("index_incremental_applies", &m.IndexApplies)
		top.Set("index_forced_rebuilds", &m.IndexRebuilds)
		top.Set("index_build_latency", &m.IndexBuild)
		top.Set("live_rounds", &m.LiveRounds)
		top.Set("live_retries", &m.LiveRetries)
		top.Set("scatter_served", &m.ScatterServed)
		top.Set("shard_forward_errors", &m.ShardForwardErrors)
		expvar.Publish("milserver", top)
	})
}

// numLatencyBuckets counts the bounded buckets; one overflow bucket
// follows.
const numLatencyBuckets = 13

// latencyBuckets are the histogram's upper bounds. The last bucket is
// unbounded.
var latencyBuckets = [numLatencyBuckets]time.Duration{
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
}

// LatencyHistogram is a fixed-bucket latency histogram that doubles
// as an expvar.Var. Buckets keep percentile estimates cheap and
// allocation-free on the hot path; exact max and count come along.
type LatencyHistogram struct {
	mu     sync.Mutex
	counts [numLatencyBuckets + 1]uint64
	count  uint64
	sum    time.Duration
	max    time.Duration
}

// Observe records one sample.
func (h *LatencyHistogram) Observe(d time.Duration) {
	i := sort.Search(len(latencyBuckets), func(i int) bool { return d <= latencyBuckets[i] })
	h.mu.Lock()
	h.counts[i]++
	h.count++
	h.sum += d
	if d > h.max {
		h.max = d
	}
	h.mu.Unlock()
}

// LatencySummary is the JSON shape of a histogram.
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

// Summary computes the histogram's exported view. Percentiles are
// upper-bound estimates: the bound of the bucket containing the
// quantile, or the max observed value when that is lower (always for
// the overflow bucket), so no percentile exceeds MaxMs.
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
		if c == 0 {
			continue
		}
		if i < len(latencyBuckets) {
			s.Buckets[fmt.Sprintf("%g", ms(latencyBuckets[i]))] = c
		} else {
			s.Buckets["+Inf"] = c
		}
	}
	q := func(p float64) float64 {
		target := uint64(p * float64(h.count))
		if target == 0 {
			target = 1
		}
		var cum uint64
		for i, c := range h.counts {
			cum += c
			if cum >= target {
				if i < len(latencyBuckets) {
					return ms(min(latencyBuckets[i], h.max))
				}
				return ms(h.max)
			}
		}
		return ms(h.max)
	}
	s.P50Ms, s.P90Ms, s.P99Ms = q(0.50), q(0.90), q(0.99)
	return s
}

// String implements expvar.Var.
func (h *LatencyHistogram) String() string {
	sum := h.Summary()
	return fmt.Sprintf(`{"count":%d,"p50_ms":%g,"p90_ms":%g,"p99_ms":%g,"max_ms":%g}`,
		sum.Count, sum.P50Ms, sum.P90Ms, sum.P99Ms, sum.MaxMs)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
