package server

import (
	"context"
	"errors"
	"fmt"
	"math"
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
// remainder, and the slices its in-process probers cover — the
// consistent-hash partition when sharding in process (stable part
// slices keep the per-shard index cache's backing-identity test
// absorbing generation bumps as deltas), else the whole clip as one
// part. An entry is reused only while the clip's VS backing array is
// the one it was computed over (videodb.SharesBacking), never by
// length: a live commit can evict and append as many windows as it
// drops.
type clipMemo struct {
	mu      sync.Mutex
	ring    *shard.Ring // nil unless sharding in process
	entries map[string]*clipMemoEntry
}

type clipMemoEntry struct {
	vss []window.VS
	// parts is the ring partition, or without a ring the whole clip
	// as one part with identity positions (Pos nil).
	parts []shard.Part
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
	e := &clipMemoEntry{vss: vss, parts: []shard.Part{{VSs: vss}}}
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

// localProbers returns one LocalProber per in-process part of the
// clip (memoized by backing identity), each over a maintained index
// per (clip, shard, kind). Unsharded, the one part is the whole clip
// under wholeClipShard, so its sessions and /v1/scatter share one
// index per kind. The part fetches run concurrently — builds on first
// use and delta applications on generation bumps alike — so with S
// shards maintenance cost arrives as S parallel ~1/S-sized units
// instead of one clip-sized pass.
func (s *Server) localProbers(clip string, entry *clipMemoEntry, gen uint64, kind index.Kind) ([]shard.Prober, error) {
	parts := entry.parts
	probers := make([]shard.Prober, len(parts))
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for i := range parts {
		sh := i
		if s.memo.ring == nil {
			sh = wholeClipShard
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bi, err := s.indexFor(clip, sh, parts[i].VSs, kind, gen)
			if err != nil {
				errs[i] = err
				return
			}
			probers[i] = shard.LocalProber{VSs: parts[i].VSs, Pos: parts[i].Pos, Index: bi}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return probers, nil
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
type ScatterResponse struct {
	Hits      []ScatterHit `json:"hits"`
	Bags      int          `json:"bags"`
	Probes    int          `json:"probes"`
	DistEvals int          `json:"dist_evals"`
}

// ScatterHit is one bag of a scatter answer: its VS index and its
// distance to the nearest probe. Dist < 0 means the bag was returned
// by completion (+Inf), not probing — JSON cannot carry +Inf.
type ScatterHit struct {
	VS   int     `json:"vs"`
	Dist float64 `json:"dist"`
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
	hits, pstats, err := shard.LocalProber{VSs: rec.VSs, Index: bi}.Probe(r.Context(), req.Probes, req.Candidates)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	wire := make([]ScatterHit, len(hits))
	for i, h := range hits {
		wire[i] = ScatterHit{VS: rec.VSs[h.Pos].Index, Dist: h.Dist}
		if math.IsInf(h.Dist, 1) {
			wire[i].Dist = -1
		}
	}
	s.metrics.ScatterServed.Add(1)
	writeJSON(w, http.StatusOK, &ScatterResponse{
		Hits:      wire,
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
// pos maps the VS indices the wire carries to positions in the
// database the session ranks.
type httpProber struct {
	node *shardNode
	clip string
	kind index.Kind
	pos  map[int]int
}

// Probe implements shard.Prober.
func (p httpProber) Probe(ctx context.Context, probes [][]float64, c int) ([]index.BagHit, index.ProbeStats, error) {
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
	hits := make([]index.BagHit, 0, len(resp.Hits))
	for _, h := range resp.Hits {
		pos, ok := p.pos[h.VS]
		if !ok {
			// A worker whose catalog view ran ahead of (or behind) the
			// coordinator's may answer with bags the session's database
			// does not hold; they cannot be ranked and are dropped —
			// degradation, not corruption.
			continue
		}
		d := h.Dist
		if d < 0 {
			d = math.Inf(1)
		}
		hits = append(hits, index.BagHit{Pos: pos, Dist: d})
	}
	return hits, index.ProbeStats{Probes: resp.Probes, DistEvals: resp.DistEvals}, nil
}

// clusterProbers returns one HTTP prober per shard worker for a
// session over rec: probes fan to the workers, and the merged union
// re-ranks centrally against the coordinator's full catalog.
func (s *Server) clusterProbers(rec *videodb.ClipRecord, kind index.Kind) []shard.Prober {
	pos := make(map[int]int, len(rec.VSs))
	for p, vs := range rec.VSs {
		pos[vs.Index] = p
	}
	probers := make([]shard.Prober, len(s.shardNodes))
	for i, n := range s.shardNodes {
		probers[i] = httpProber{node: n, clip: rec.Name, kind: kind, pos: pos}
	}
	return probers
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

// ShardStats reports what only sharded serving has in /v1/stats: the
// topology, lost and partial shard probes, and scatter/merge time.
// The round counters every indexed session shares (pruned, full and
// seeded rounds, probe work, re-ranked bags) are in the index block
// at every shard count. Shard workers report the probes they served
// under scatter_served.
type ShardStats struct {
	Mode             string `json:"mode"` // "inprocess", "coordinator" or "worker"
	Shards           int    `json:"shards"`
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
	BoundedProbes  int64   `json:"bounded_shard_probes"`
	ScatterMsTotal float64 `json:"scatter_ms_total"`
	MergeMsTotal   float64 `json:"merge_ms_total"`
	ScatterServed  int64   `json:"scatter_served,omitempty"`
	ForwardErrors  int64   `json:"forward_errors,omitempty"`
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

// shardStatsJSON snapshots the shard-only counters.
func (s *Server) shardStatsJSON(mode string) *ShardStats {
	st := s.engineStats
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
		PartialRounds:    st.PartialRounds.Load(),
		AllFailedRounds:  st.AllFailedRounds.Load(),
		ShardTimeouts:    st.ShardTimeouts.Load(),
		ShardErrors:      st.ShardErrors.Load(),
		InjectedStalls:   st.InjectedStalls.Load(),
		InjectedFailures: st.InjectedFailures.Load(),
		BoundedProbes:    st.BoundedShardProbes.Load(),
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
