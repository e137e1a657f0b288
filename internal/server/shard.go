package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"milvideo/internal/faults"
	"milvideo/internal/index"
	"milvideo/internal/retrieval"
	"milvideo/internal/shard"
	"milvideo/internal/videodb"
	"milvideo/internal/window"
)

// clipMemo memoizes what serving derives from each clip's VS database:
// its §5.3 heuristic order, which pruned rounds filter for their
// remainder, and its consistent-hash partition when sharding in
// process (stable part slices keep the per-shard index cache's
// backing-identity test absorbing generation bumps as deltas). An
// entry is reused only while the clip's VS backing array is the one
// it was computed over (videodb.SharesBacking), never by length: a
// live commit can evict and append as many windows as it drops.
type clipMemo struct {
	mu      sync.Mutex
	ring    *shard.Ring // nil unless sharding in process
	entries map[string]*clipMemoEntry
}

type clipMemoEntry struct {
	vss   []window.VS
	parts []shard.Part // nil unless the memo has a ring
	// order is HeuristicOrder(vss), computed under mu by the first
	// pruned round that needs it.
	mu    sync.Mutex
	order []int
}

func newClipMemo(ring *shard.Ring) *clipMemo {
	return &clipMemo{ring: ring, entries: make(map[string]*clipMemoEntry)}
}

// get returns the entry for a clip's current VS database, replacing
// one computed over another backing.
func (c *clipMemo) get(name string, vss []window.VS) *clipMemoEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[name]; ok && videodb.SharesBacking(e.vss, vss) {
		return e
	}
	e := &clipMemoEntry{vss: vss}
	if c.ring != nil {
		e.parts = shard.PartitionVS(c.ring, name, vss)
	}
	c.entries[name] = e
	return e
}

// heuristicOrder returns the entry's stored order, computing it on
// first use.
func (e *clipMemoEntry) heuristicOrder() []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.order == nil {
		e.order = retrieval.HeuristicOrder(e.vss)
	}
	return e.order
}

// drop discards the memoized state for one clip (deletion or
// retention eviction).
func (c *clipMemo) drop(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.entries, name)
}

// indexFor fetches (building or maintaining) one cached index and
// folds the cache outcome into the metrics. shard is wholeClipShard
// for a clip's undivided index, or the 0-based shard number for one
// partition's.
func (s *Server) indexFor(clip string, sh int, vss []window.VS, kind index.Kind, gen uint64) (*index.BagIndex, error) {
	bi, outcome, buildTime, err := s.indexes.get(clip, sh, vss, kind, gen)
	if err != nil {
		return nil, err
	}
	switch outcome {
	case cacheBuilt:
		s.metrics.IndexBuilds.Add(1)
		s.metrics.IndexBuild.Observe(buildTime)
	case cacheApplied:
		s.metrics.IndexApplies.Add(1)
	case cacheRebuilt:
		s.metrics.IndexRebuilds.Add(1)
		s.metrics.IndexBuild.Observe(buildTime)
	default:
		s.metrics.IndexCacheHits.Add(1)
	}
	return bi, nil
}

// shardedEngine wraps inner in the in-process scatter–gather engine:
// the clip's partition (memoized by backing identity), one maintained
// index per (clip, shard, kind), a LocalProber over each part. The S
// per-part index fetches run concurrently — builds on first use and
// delta applications on generation bumps alike — so maintenance cost
// arrives as S parallel ~1/S-sized units instead of one clip-sized
// pass.
func (s *Server) shardedEngine(inner retrieval.Engine, rec *videodb.ClipRecord, entry *clipMemoEntry, gen uint64, kind index.Kind, cand int) (retrieval.Engine, error) {
	parts := entry.parts
	probers := make([]shard.Prober, len(parts))
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bi, err := s.indexFor(rec.Name, i, parts[i].VSs, kind, gen)
			if err != nil {
				errs[i] = err
				return
			}
			probers[i] = shard.LocalProber{VSs: parts[i].VSs, Index: bi}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &shard.Engine{
		Inner:   inner,
		Probers: probers,
		C:       cand,
		Timeout: s.cfg.ShardTimeout,
		Workers: s.cfg.ShardWorkers,
		Stats:   s.shardStats,
		Fault:   s.shardFault,
		Order:   entry.heuristicOrder,
	}, nil
}

// shardFaultHook adapts the chaos injector to the scatter engine's
// per-(shard, round) hook; nil when shard faults are not armed, so
// the inert path stays a nil check.
func shardFaultHook(inj *faults.Injector) func(int, uint64) (time.Duration, error) {
	c := inj.Config()
	if c.SlowShard <= 0 && c.FailShard <= 0 {
		return nil
	}
	return func(sh int, seq uint64) (time.Duration, error) {
		return inj.ShardFault(sh, seq)
	}
}

// ScatterRequest is the body of POST /v1/scatter: one shard worker's
// share of a scattered candidate probe. Kind names the index
// structure, Candidates the per-shard budget, Probes the flattened
// positive-instance vectors.
type ScatterRequest struct {
	Clip       string      `json:"clip"`
	Kind       string      `json:"kind"`
	Candidates int         `json:"candidates"`
	Probes     [][]float64 `json:"probes"`
}

// ScatterResponse carries the shard's local top-C hits. Bags is the
// shard's partition size for the clip (0 when it owns none of it).
// Hits use shard.Hit's wire convention: dist < 0 means the bag was
// returned by completion (+Inf), not probing.
type ScatterResponse struct {
	Hits      []shard.Hit `json:"hits"`
	Bags      int         `json:"bags"`
	Probes    int         `json:"probes"`
	DistEvals int         `json:"dist_evals"`
}

// handleScatter answers a coordinator's probe from this worker's
// partition of the clip. A clip this worker holds no bags of is a
// legitimately empty answer, not an error — the coordinator's merge
// treats it as zero candidates.
func (s *Server) handleScatter(w http.ResponseWriter, r *http.Request) {
	var req ScatterRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Clip == "" {
		writeError(w, http.StatusBadRequest, errors.New("scatter needs a clip name"))
		return
	}
	kind, err := index.ParseKind(req.Kind)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Candidates <= 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad candidate budget %d", req.Candidates))
		return
	}
	snap := s.cfg.DB.Snapshot()
	rec, err := snap.Clip(req.Clip)
	if err != nil {
		if errors.Is(err, videodb.ErrNotFound) {
			s.metrics.ScatterServed.Add(1)
			writeJSON(w, http.StatusOK, &ScatterResponse{})
			return
		}
		writeError(w, http.StatusNotFound, err)
		return
	}
	bi, err := s.indexFor(rec.Name, wholeClipShard, rec.VSs, kind, snap.Generation())
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	hits, pstats, err := shard.ProbeLocal(rec.VSs, bi, req.Probes, req.Candidates)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	s.metrics.ScatterServed.Add(1)
	writeJSON(w, http.StatusOK, &ScatterResponse{
		Hits:      hits,
		Bags:      len(rec.VSs),
		Probes:    pstats.Probes,
		DistEvals: pstats.DistEvals,
	})
}

// shardNode is the coordinator's handle on one shard worker: its
// client plus per-shard scatter telemetry.
type shardNode struct {
	url      string
	client   *Client
	scatter  LatencyHistogram
	timeouts atomic.Int64
	errs     atomic.Int64
}

// httpProber scatters one clip's probes to one worker's /v1/scatter.
type httpProber struct {
	node *shardNode
	clip string
	kind index.Kind
}

// Probe implements shard.Prober.
func (p httpProber) Probe(ctx context.Context, probes [][]float64, c int) ([]shard.Hit, index.ProbeStats, error) {
	start := time.Now()
	resp, err := p.node.client.Scatter(ctx, ScatterRequest{
		Clip:       p.clip,
		Kind:       string(p.kind),
		Candidates: c,
		Probes:     probes,
	})
	p.node.scatter.Observe(time.Since(start))
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			p.node.timeouts.Add(1)
		} else {
			p.node.errs.Add(1)
		}
		return nil, index.ProbeStats{}, err
	}
	return resp.Hits, index.ProbeStats{Probes: resp.Probes, DistEvals: resp.DistEvals}, nil
}

// clusterEngine wraps inner in the cluster scatter–gather engine:
// probes fan to the shard workers over HTTP, the merged union
// re-ranks centrally against the coordinator's full catalog.
func (s *Server) clusterEngine(inner retrieval.Engine, clip string, entry *clipMemoEntry, kind index.Kind, cand int) retrieval.Engine {
	probers := make([]shard.Prober, len(s.shardNodes))
	for i, n := range s.shardNodes {
		probers[i] = httpProber{node: n, clip: clip, kind: kind}
	}
	return &shard.Engine{
		Inner:   inner,
		Probers: probers,
		C:       cand,
		Timeout: s.cfg.ShardTimeout,
		Workers: s.cfg.ShardWorkers,
		Stats:   s.shardStats,
		Fault:   s.shardFault,
		Order:   entry.heuristicOrder,
	}
}

// forwardToShards relays a catalog write to every shard worker so
// the cluster's partitions track the coordinator's catalog. Failures
// are counted, never fatal: the affected worker serves a stale
// partition and scattered rounds degrade to partial candidates. A
// no-op when the server is not a coordinator.
func (s *Server) forwardToShards(ctx context.Context, f func(ctx context.Context, c *Client) error) {
	for _, n := range s.shardNodes {
		fctx, cancel := context.WithTimeout(ctx, s.cfg.ShardTimeout)
		err := f(fctx, n.client)
		cancel()
		if err != nil {
			s.metrics.ShardForwardErrors.Add(1)
		}
	}
}

// ShardStats reports the scatter–gather subsystem in /v1/stats. The
// in-process sharded engine and the coordinator share the counters;
// shard workers report the probes they served under scatter_served.
type ShardStats struct {
	Mode             string `json:"mode"` // "inprocess", "coordinator" or "worker"
	Shards           int    `json:"shards"`
	ScatterRounds    int64  `json:"scatter_rounds"`
	FullRounds       int64  `json:"full_rounds"`
	SeededRounds     int64  `json:"seeded_rounds"`
	PartialRounds    int64  `json:"partial_rounds"`
	AllFailedRounds  int64  `json:"all_failed_rounds"`
	ShardTimeouts    int64  `json:"shard_timeouts"`
	ShardErrors      int64  `json:"shard_errors"`
	InjectedStalls   int64  `json:"injected_shard_stalls"`
	InjectedFailures int64  `json:"injected_shard_failures"`
	// BoundedProbes counts carried-wave shard probes that pruned
	// against a scout bound (see shard.Engine's scout-and-carry
	// scatter) — zero on coordinators, whose HTTP probers don't carry
	// bounds.
	BoundedProbes    int64   `json:"bounded_shard_probes"`
	Probes           int64   `json:"probes"`
	DistEvals        int64   `json:"dist_evals"`
	MergedCandidates int64   `json:"merged_candidates"`
	ScatterMsTotal   float64 `json:"scatter_ms_total"`
	MergeMsTotal     float64 `json:"merge_ms_total"`
	ScatterServed    int64   `json:"scatter_served,omitempty"`
	ForwardErrors    int64   `json:"forward_errors,omitempty"`
}

// ShardNodeStats is the coordinator's per-worker telemetry: scatter
// latency quantiles measured at the coordinator, plus loss counters.
type ShardNodeStats struct {
	URL       string         `json:"url"`
	Reachable bool           `json:"reachable"`
	Scatter   LatencySummary `json:"scatter_latency"`
	Timeouts  int64          `json:"timeouts"`
	Errors    int64          `json:"errors"`
}

// ClusterStats aggregates the workers behind a coordinator so one
// /v1/stats endpoint still tells the whole story: summed index and
// degradation counters across shards, plus the per-shard breakdown.
type ClusterStats struct {
	Shards        int              `json:"shards"`
	Reachable     int              `json:"reachable"`
	ScatterServed int64            `json:"scatter_served"`
	Index         IndexStats       `json:"index"`
	Degraded      DegradationStats `json:"degraded"`
	PerShard      []ShardNodeStats `json:"per_shard"`
}

// statsFetchTimeout bounds each worker /v1/stats fetch during
// coordinator stats aggregation.
const statsFetchTimeout = 2 * time.Second

// shardMode names this server's role in the sharded topology, or ""
// when it serves a plain single catalog.
func (s *Server) shardMode() string {
	switch {
	case len(s.shardNodes) > 0:
		return "coordinator"
	case s.memo.ring != nil:
		return "inprocess"
	case s.partRing != nil:
		return "worker"
	}
	return ""
}

// shardStatsJSON snapshots the scatter counters.
func (s *Server) shardStatsJSON(mode string) *ShardStats {
	st := s.shardStats
	shards := 0
	switch mode {
	case "coordinator":
		shards = len(s.shardNodes)
	case "inprocess":
		shards = s.cfg.Shards
	case "worker":
		shards = s.cfg.PartitionCount
	}
	return &ShardStats{
		Mode:             mode,
		Shards:           shards,
		ScatterRounds:    st.ScatterRounds.Load(),
		FullRounds:       st.FullRounds.Load(),
		SeededRounds:     st.SeededRounds.Load(),
		PartialRounds:    st.PartialRounds.Load(),
		AllFailedRounds:  st.AllFailedRounds.Load(),
		ShardTimeouts:    st.ShardTimeouts.Load(),
		ShardErrors:      st.ShardErrors.Load(),
		InjectedStalls:   st.InjectedStalls.Load(),
		InjectedFailures: st.InjectedFailures.Load(),
		BoundedProbes:    st.BoundedShardProbes.Load(),
		Probes:           st.Probes.Load(),
		DistEvals:        st.DistEvals.Load(),
		MergedCandidates: st.MergedCandidates.Load(),
		ScatterMsTotal:   ms(time.Duration(st.ScatterNs.Load())),
		MergeMsTotal:     ms(time.Duration(st.MergeNs.Load())),
		ScatterServed:    s.metrics.ScatterServed.Value(),
		ForwardErrors:    s.metrics.ShardForwardErrors.Value(),
	}
}

// clusterStats polls every worker's /v1/stats and sums the counters.
// An unreachable worker is reported as such and skipped — stats
// degrade like queries do.
func (s *Server) clusterStats() *ClusterStats {
	cs := &ClusterStats{Shards: len(s.shardNodes)}
	for _, n := range s.shardNodes {
		node := ShardNodeStats{
			URL:      n.url,
			Scatter:  n.scatter.Summary(),
			Timeouts: n.timeouts.Load(),
			Errors:   n.errs.Load(),
		}
		ctx, cancel := context.WithTimeout(context.Background(), statsFetchTimeout)
		st, err := n.client.Stats(ctx)
		cancel()
		if err == nil {
			node.Reachable = true
			cs.Reachable++
			addIndexStats(&cs.Index, st.Index)
			addDegradation(&cs.Degraded, st.Degraded)
			if st.Shard != nil {
				cs.ScatterServed += st.Shard.ScatterServed
			}
		}
		cs.PerShard = append(cs.PerShard, node)
	}
	return cs
}

// addIndexStats sums the counter fields of one worker's index stats
// into dst (latency histograms are per-process and not summable; the
// per-shard breakdown carries latency instead).
func addIndexStats(dst *IndexStats, src IndexStats) {
	dst.Builds += src.Builds
	dst.CacheHits += src.CacheHits
	dst.IncrementalApplies += src.IncrementalApplies
	dst.ForcedRebuilds += src.ForcedRebuilds
	dst.Tombstones += src.Tombstones
	dst.QuantizerTrainMs += src.QuantizerTrainMs
	dst.PrunedRounds += src.PrunedRounds
	dst.FullRounds += src.FullRounds
	dst.SeededRounds += src.SeededRounds
	dst.Probes += src.Probes
	dst.DistEvals += src.DistEvals
	dst.CandidatesRanked += src.CandidatesRanked
}

// addDegradation sums one worker's degradation counters into dst.
func addDegradation(dst *DegradationStats, src DegradationStats) {
	dst.RoundsTimedOut += src.RoundsTimedOut
	dst.InjectedSlow += src.InjectedSlow
	dst.InjectedFailures += src.InjectedFailures
	dst.BodiesRejected += src.BodiesRejected
}
