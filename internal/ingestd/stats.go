package ingestd

import "milvideo/internal/stats"

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

	// Staleness: for each committed segment, the time from source
	// arrival to the moment its windows were applied to the live
	// index.
	MaxStalenessMs      int64                `json:"max_staleness_ms"`
	StalenessViolations uint64               `json:"staleness_violations"`
	Staleness           stats.LatencySummary `json:"staleness"`
}
