package server

import (
	"sync/atomic"
	"time"

	"milvideo/internal/stats"
)

// Metrics is the server's instrumentation, served under /v1/stats:
// counters for the session lifecycle and latency histograms for
// re-ranks and index builds. Every Server owns its own instance, so
// tests can run many servers in one process.
type Metrics struct {
	SessionsLive     atomic.Int64
	SessionsCreated  atomic.Int64
	SessionsEvicted  atomic.Int64
	SessionsExpired  atomic.Int64
	SessionsDeleted  atomic.Int64
	RoundsServed     atomic.Int64
	RequestsRejected atomic.Int64

	// Degradation counters: rounds that hit their deadline mid-stall,
	// injected slow and failed re-ranks, and oversized request bodies
	// rejected before parsing.
	RoundsTimedOut atomic.Int64
	InjectedSlow   atomic.Int64
	InjectedFail   atomic.Int64
	BodiesRejected atomic.Int64

	// Candidate-index lifecycle: builds actually performed, cache hits
	// that reused one, and the build latency distribution. Under
	// incremental maintenance a generation bump that left the clip's
	// content untouched lands in IndexApplies (a verified no-op delta)
	// instead of a rebuild; IndexRebuilds counts the forced rebuilds
	// where the clip's VSs were genuinely replaced.
	IndexBuilds    atomic.Int64
	IndexCacheHits atomic.Int64
	IndexApplies   atomic.Int64
	IndexRebuilds  atomic.Int64
	IndexBuild     stats.LatencyHistogram

	// LiveRounds counts rounds served by live sessions (per-round
	// catalog re-resolution); LiveRetries counts rounds that re-ranked
	// after losing the race with a concurrent live-index apply.
	LiveRounds  atomic.Int64
	LiveRetries atomic.Int64

	// ScatterServed counts /v1/scatter probes answered (shard
	// workers); ShardForwardErrors counts catalog writes a
	// coordinator failed to relay to a worker.
	ScatterServed      atomic.Int64
	ShardForwardErrors atomic.Int64

	Rerank stats.LatencyHistogram
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
