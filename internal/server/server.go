// Package server exposes the paper's interactive retrieval loop as a
// concurrent, stateful HTTP query service: a user seeds a session
// from a stored clip (optionally via a query-by-example VS or a
// sketched trajectory), inspects the top-k ranked video sequences,
// posts relevance feedback, and the One-class SVM re-ranks — the
// §5.3/§6.2 protocol, multi-round and multi-user.
//
// API (JSON over HTTP):
//
//	POST   /v1/query                  seed a session, returns round 0
//	GET    /v1/session/{id}/ranking   latest round's ranking
//	POST   /v1/session/{id}/feedback  user labels → SVM re-rank
//	DELETE /v1/session/{id}           end the session
//	POST   /v1/clips                  ingest a synthetic clip (churn)
//	DELETE /v1/clips/{name}           remove a clip from the catalog
//	GET    /v1/stats                  service metrics
//
// Concurrency model: per-session rounds are serialized while re-ranks
// of different sessions run concurrently under a bounded worker pool.
// Queries rank against a read-mostly videodb.Snapshot, so serving
// never blocks ingestion. The store applies TTL expiry and LRU
// eviction; Close drains in-flight re-ranks for graceful shutdown.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"milvideo/internal/core"
	"milvideo/internal/event"
	"milvideo/internal/faults"
	"milvideo/internal/geom"
	"milvideo/internal/index"
	"milvideo/internal/ingestd"
	"milvideo/internal/mil"
	"milvideo/internal/predicate"
	"milvideo/internal/query"
	"milvideo/internal/retrieval"
	"milvideo/internal/shard"
	"milvideo/internal/stats"
	"milvideo/internal/videodb"
	"milvideo/internal/window"
)

// Config tunes the service. Zero values take the documented defaults.
type Config struct {
	// DB is the clip catalog to serve (required). The server reads
	// through point-in-time snapshots, so concurrent ingestion into
	// the same DB is safe and never blocks queries.
	DB *videodb.DB
	// MaxSessions caps live sessions; the least recently used session
	// is evicted beyond it. Default 256.
	MaxSessions int
	// SessionTTL expires sessions idle longer than this. Default 15m.
	SessionTTL time.Duration
	// RerankWorkers bounds concurrently executing re-ranks across all
	// sessions. Default GOMAXPROCS.
	RerankWorkers int
	// RequestTimeout bounds each ranking request, including the wait
	// for a worker slot. Default 30s.
	RequestTimeout time.Duration
	// DefaultTopK is the per-round result count when a query names
	// none. Default 20 (the paper's protocol).
	DefaultTopK int
	// DefaultIndex, when set ("vptree"), routes sessions that
	// don't specify an index through that candidate index by default.
	// Empty means exact ranking unless a query asks for an index.
	DefaultIndex string
	// DefaultCandidates is the candidate-set size C applied when a
	// session uses an index without naming C. Default 64.
	DefaultCandidates int
	// Quant selects instance-feature quantization for candidate
	// indexes ("pq"; empty or "none" keeps exact float probing). PQ
	// codes shrink the instance store ~24×; the exact re-rank is
	// unaffected either way.
	Quant string
	// MaxBodyBytes caps request-body size; oversized bodies are
	// rejected with 413 before any parsing. Default 1 MiB.
	MaxBodyBytes int64
	// Faults injects per-round re-rank failures and latency (chaos
	// testing). A nil or zero-rate injector is fully inert: rankings
	// and statuses are identical to an unconfigured server. Injected
	// failures surface as 503 with Retry-After, never as corrupt
	// rankings; both outcomes are counted in /v1/stats under
	// "degraded". SlowShard/FailShard rates degrade scattered rounds
	// to partial results instead.
	Faults *faults.Injector
	// Clock overrides time.Now for TTL tests.
	Clock func() time.Time

	// Shards, when > 1, partitions each clip's VS database across
	// Shards in-process consistent-hash shards: each shard maintains
	// its own candidate index (per-(clip, shard, kind) cache entries,
	// built and delta-maintained in parallel on generation bumps), and
	// every indexed round scatters its probes across them. 0 or 1
	// serves indexed sessions as one shard over the whole clip. Every
	// shard count runs the same engine, and C >= N sessions reproduce
	// the exact ranking at each.
	Shards int
	// ShardTimeout bounds each shard's probe in an indexed round and
	// each coordinator→worker catalog forward. A shard that misses it
	// is dropped from the round (partial results, counted in
	// /v1/stats). Default 10s.
	ShardTimeout time.Duration
	// ShardURLs, when set, turns the server into a cluster
	// coordinator: it owns the full catalog and re-ranks centrally,
	// but indexed rounds scatter their probes to these shard workers'
	// /v1/scatter endpoints (worker i must run with PartitionIndex=i,
	// PartitionCount=len(ShardURLs) over the same catalog), and
	// catalog writes are forwarded to every worker. Overrides Shards.
	ShardURLs []string
	// Ingest attaches an always-on ingest daemon: the daemon's feed
	// clip is marked live in the index cache (generation bumps apply
	// as incremental deltas, never rebuilds), sessions over the feed
	// clip re-resolve the catalog every round, the daemon's lifecycle
	// state is served under /v1/stats, and the server acts as the
	// daemon's live-index Applier. The caller starts the daemon with
	// the server as its Applier after New. Incompatible with cluster
	// modes (ShardURLs, PartitionCount) — live applies don't forward.
	Ingest *ingestd.Daemon
	// PartitionIndex/PartitionCount mark this server as shard worker
	// i of n: clips ingested through POST /v1/clips are filtered down
	// to the partition this worker owns before storage (cmd/serve
	// -shard filters a loaded catalog the same way at startup), and
	// /v1/scatter answers from the local partition.
	PartitionIndex int
	PartitionCount int
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 256
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 15 * time.Minute
	}
	if c.RerankWorkers <= 0 {
		c.RerankWorkers = runtime.GOMAXPROCS(0)
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.DefaultTopK <= 0 {
		c.DefaultTopK = 20
	}
	if c.DefaultCandidates <= 0 {
		c.DefaultCandidates = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 10 * time.Second
	}
	return c
}

// Server is the query service. Create with New, mount via Handler,
// stop with Close.
type Server struct {
	cfg     Config
	store   *sessionStore
	metrics *Metrics
	// indexes caches built candidate indexes per (clip, shard, kind);
	// engineStats accumulates every indexed session's round counters.
	indexes     *indexCache
	engineStats *shard.Stats
	sem         chan struct{}
	mux         *http.ServeMux
	// roundSeq numbers every round attempt across all sessions; the
	// fault injector keys its per-round decisions to it, so a fault
	// schedule is a deterministic function of (seed, arrival order).
	roundSeq atomic.Uint64

	// memo holds each clip's stored heuristic order for pruned rounds
	// and the parts its in-process probers cover.
	memo *clipMemo
	// Sharded serving state: the partition-filter ring (worker mode),
	// the optional per-shard chaos hook, and the coordinator's worker
	// nodes (cluster mode).
	partRing   *shard.Ring
	shardFault func(shard int, seq uint64) (time.Duration, error)
	shardNodes []*shardNode

	stop    chan struct{}
	stopped chan struct{}
}

// New builds a Server over the catalog in cfg.DB.
func New(cfg Config) (*Server, error) {
	if cfg.DB == nil {
		return nil, errors.New("server: Config.DB is required")
	}
	cfg = cfg.withDefaults()
	if cfg.DefaultIndex != "" {
		if _, err := index.ParseKind(cfg.DefaultIndex); err != nil {
			return nil, err
		}
	}
	var indexOpt index.Options
	if cfg.Quant != "" {
		qk, err := index.ParseQuantKind(cfg.Quant)
		if err != nil {
			return nil, err
		}
		indexOpt.Quant = qk
	}
	if cfg.PartitionCount > 1 && (cfg.PartitionIndex < 0 || cfg.PartitionIndex >= cfg.PartitionCount) {
		return nil, fmt.Errorf("server: partition index %d out of range 0..%d", cfg.PartitionIndex, cfg.PartitionCount-1)
	}
	if cfg.Ingest != nil && (len(cfg.ShardURLs) > 0 || cfg.PartitionCount > 1) {
		return nil, errors.New("server: ingest daemon is incompatible with cluster modes")
	}
	s := &Server{
		cfg:         cfg,
		store:       newSessionStore(cfg.MaxSessions, cfg.SessionTTL, cfg.Clock),
		metrics:     &Metrics{},
		indexes:     newIndexCache(indexOpt),
		engineStats: &shard.Stats{},
		sem:         make(chan struct{}, cfg.RerankWorkers),
		mux:         http.NewServeMux(),
		stop:        make(chan struct{}),
		stopped:     make(chan struct{}),
	}
	s.shardFault = shardFaultHook(cfg.Faults)
	var ring *shard.Ring
	if len(cfg.ShardURLs) > 0 {
		for _, u := range cfg.ShardURLs {
			s.shardNodes = append(s.shardNodes, &shardNode{url: u, client: &Client{BaseURL: u}})
		}
	} else if cfg.Shards > 1 {
		ring = shard.NewRing(cfg.Shards)
	}
	s.memo = newClipMemo(ring)
	if cfg.PartitionCount > 1 {
		s.partRing = shard.NewRing(cfg.PartitionCount)
	}
	if cfg.Ingest != nil {
		s.indexes.setLive(cfg.Ingest.FeedClip())
	}
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("GET /v1/session/{id}/ranking", s.handleRanking)
	s.mux.HandleFunc("POST /v1/session/{id}/feedback", s.handleFeedback)
	s.mux.HandleFunc("DELETE /v1/session/{id}", s.handleDelete)
	s.mux.HandleFunc("POST /v1/clips", s.handleCreateClip)
	s.mux.HandleFunc("DELETE /v1/clips/{name}", s.handleDeleteClip)
	s.mux.HandleFunc("POST /v1/scatter", s.handleScatter)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	go s.janitor()
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops the TTL janitor and drains in-flight re-ranks: it
// acquires every worker slot, so it returns only after the last
// running re-rank finished. Requests arriving after Close began are
// rejected by the slot wait's context as usual.
func (s *Server) Close() {
	close(s.stop)
	<-s.stopped
	for i := 0; i < cap(s.sem); i++ {
		s.sem <- struct{}{}
	}
	for i := 0; i < cap(s.sem); i++ {
		<-s.sem
	}
}

// janitor sweeps expired sessions until Close.
func (s *Server) janitor() {
	defer close(s.stopped)
	period := s.cfg.SessionTTL / 4
	if period < time.Second {
		period = time.Second
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			for range s.store.sweep() {
				s.metrics.SessionsExpired.Add(1)
				s.metrics.SessionsLive.Add(-1)
			}
		}
	}
}

// ---- wire types ----

// QueryRequest seeds a session over one stored clip.
type QueryRequest struct {
	// Clip names the catalog clip to query.
	Clip string `json:"clip"`
	// Engine selects the learner (core.EngineNames; empty = "mil").
	Engine string `json:"engine,omitempty"`
	// TopK is the per-round result count (default: server's
	// DefaultTopK).
	TopK int `json:"topk,omitempty"`
	// ExampleVS, when set, seeds the initial ranking by example: the
	// named VS's most eventful trajectory becomes the query, and the
	// learner takes over once positive feedback exists.
	ExampleVS *int `json:"example_vs,omitempty"`
	// Sketch, when set, seeds the initial ranking from a drawn
	// trajectory (mutually exclusive with ExampleVS).
	Sketch *SketchQuery `json:"sketch,omitempty"`
	// Predicate, when set, seeds the initial ranking from a composed
	// predicate AST (motion, attribute, region and temporal leaves —
	// see internal/predicate). Mutually exclusive with ExampleVS and
	// Sketch; a sketch composes with other predicates as the AST's
	// "sketch" leaf. Unlike the VS-anchored seeds it is legal for
	// live sessions: the predicate re-evaluates against whatever the
	// catalog holds each round.
	Predicate *predicate.Node `json:"predicate,omitempty"`
	// Index selects a candidate index for this session ("vptree";
	// "exact" or "none" force exact ranking even when the server has a
	// default index). The URL query parameter ?index=
	// overrides this field.
	Index string `json:"index,omitempty"`
	// Candidates is the candidate-set size C the exact engine
	// re-ranks per round (0 = server default; ignored without an
	// index). The URL query parameter ?candidates= overrides it.
	Candidates int `json:"candidates,omitempty"`
	// Live re-resolves the clip from a fresh catalog snapshot every
	// round instead of pinning the session to the snapshot it was
	// created over — each ranking covers whatever the ingest daemon
	// has committed and retained by then. Implied for the daemon's
	// feed clip; mutually exclusive with example_vs and sketch seeds
	// (their VS anchors can be evicted mid-session).
	Live bool `json:"live,omitempty"`
}

// SketchQuery is a sketched trajectory: a polyline in image
// coordinates.
type SketchQuery struct {
	// Points are [x, y] pairs (≥ 2).
	Points [][2]float64 `json:"points"`
	// FramesPerSegment is how fast the sketched vehicle moves (≤ 0
	// means 5 frames per polyline segment).
	FramesPerSegment int `json:"frames_per_segment,omitempty"`
}

// RankingEntry is one returned video sequence with its clip-relative
// frame span, enough for a client to cue playback.
type RankingEntry struct {
	VS         int `json:"vs"`
	StartFrame int `json:"start_frame"`
	EndFrame   int `json:"end_frame"`
	TSCount    int `json:"ts_count"`
}

// RoundResponse reports one retrieval round.
type RoundResponse struct {
	Session string `json:"session"`
	Clip    string `json:"clip"`
	Engine  string `json:"engine"`
	// Round is 0 for the initial query, incrementing per feedback.
	Round  int `json:"round"`
	DBSize int `json:"db_size"`
	// TopK are the returned results in rank order.
	TopK []RankingEntry `json:"topk"`
	// Ranking is the full database ordering (VS indices, best first).
	Ranking []int `json:"ranking"`
}

// FeedbackLabel is one user judgment.
type FeedbackLabel struct {
	VS       int  `json:"vs"`
	Relevant bool `json:"relevant"`
}

// FeedbackRequest posts a round of user labels.
type FeedbackRequest struct {
	Labels []FeedbackLabel `json:"labels"`
}

// IndexStats reports the candidate-index subsystem: build/reuse
// lifecycle and the probe work of pruned rounds.
type IndexStats struct {
	// Builds counts indexes actually constructed; CacheHits counts
	// sessions that reused a cached one.
	Builds    int64 `json:"builds"`
	CacheHits int64 `json:"cache_hits"`
	// IncrementalApplies counts catalog-generation bumps absorbed by
	// incremental maintenance (no rebuild); ForcedRebuilds counts the
	// bumps that replaced a queried clip's content and forced one.
	IncrementalApplies int64 `json:"incremental_applies"`
	ForcedRebuilds     int64 `json:"forced_rebuilds"`
	// Tombstones is the current count of deleted-but-resident points
	// across cached indexes; QuantizerTrainMs totals quantizer
	// training time.
	Tombstones       int64   `json:"tombstones"`
	QuantizerTrainMs float64 `json:"quantizer_train_ms"`
	// PrunedRounds ranked through a scattered candidate set (C ≥ N
	// rounds included, whose candidate set is the whole clip);
	// FullRounds fell back to exact ranking (no probes yet, or every
	// shard lost). SeededRounds are the subset of pruned rounds whose
	// probes came from the engine's own seeds (predicate sessions
	// before any positive feedback) rather than positive-labeled bags.
	// The counters cover every shard count, unsharded (S = 1)
	// included.
	PrunedRounds int64 `json:"pruned_rounds"`
	FullRounds   int64 `json:"full_rounds"`
	SeededRounds int64 `json:"seeded_rounds"`
	// Probes and DistEvals total the index probe work (none for C ≥ N
	// rounds, which search nothing); CandidatesRanked totals the bags
	// exact-re-ranked.
	Probes           int64                `json:"probes"`
	DistEvals        int64                `json:"dist_evals"`
	CandidatesRanked int64                `json:"candidates_ranked"`
	BuildLatency     stats.LatencySummary `json:"build_latency"`
}

// DegradationStats reports how often the service degraded instead of
// serving a round normally: deadline-hit rounds, injected slow and
// failed re-ranks (chaos testing), and oversized bodies rejected at
// the door. All zero on a healthy, fault-free server.
type DegradationStats struct {
	RoundsTimedOut   int64 `json:"rounds_timed_out"`
	InjectedSlow     int64 `json:"injected_slow_reranks"`
	InjectedFailures int64 `json:"injected_failed_reranks"`
	BodiesRejected   int64 `json:"bodies_rejected"`
}

// StatsResponse is /v1/stats.
type StatsResponse struct {
	SessionsLive     int64                `json:"sessions_live"`
	SessionsCreated  int64                `json:"sessions_created"`
	SessionsEvicted  int64                `json:"sessions_evicted"`
	SessionsExpired  int64                `json:"sessions_expired"`
	SessionsDeleted  int64                `json:"sessions_deleted"`
	RoundsServed     int64                `json:"rounds_served"`
	RequestsRejected int64                `json:"requests_rejected"`
	Degraded         DegradationStats     `json:"degraded"`
	Index            IndexStats           `json:"index"`
	RerankLatency    stats.LatencySummary `json:"rerank_latency"`
	// Shard reports the scatter–gather subsystem when this server
	// shards in-process, coordinates a cluster, or serves a worker
	// partition; Cluster additionally aggregates the workers behind a
	// coordinator. Both are absent on a plain single-catalog server.
	Shard   *ShardStats   `json:"shard,omitempty"`
	Cluster *ClusterStats `json:"cluster,omitempty"`
	// Live reports live-session serving (rounds over a per-round
	// re-resolved catalog and retries after losing a race with the
	// ingest daemon's index applies); Ingest is the attached ingest
	// daemon's lifecycle state. Both absent without an ingest daemon.
	Live   *LiveStats     `json:"live,omitempty"`
	Ingest *ingestd.Stats `json:"ingest,omitempty"`
}

// LiveStats reports live-session serving counters.
type LiveStats struct {
	Rounds  int64 `json:"rounds"`
	Retries int64 `json:"retries"`
}

// ErrorResponse is the JSON error envelope.
type ErrorResponse struct {
	Error string `json:"error"`
}

// ---- handlers ----

// decodeBody parses a JSON request body under the configured size
// cap, writing the appropriate error response itself (413 for an
// oversized body, 400 for malformed JSON) when it returns false.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.metrics.BodiesRejected.Add(1)
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Clip == "" {
		writeError(w, http.StatusBadRequest, errors.New("query needs a clip name"))
		return
	}
	seeds := 0
	for _, set := range []bool{req.ExampleVS != nil, req.Sketch != nil, req.Predicate != nil} {
		if set {
			seeds++
		}
	}
	if seeds > 1 {
		writeError(w, http.StatusBadRequest, errors.New("example_vs, sketch and predicate are mutually exclusive"))
		return
	}
	if s.cfg.Ingest != nil && req.Clip == s.cfg.Ingest.FeedClip() {
		req.Live = true
	}
	if req.Live {
		if req.ExampleVS != nil || req.Sketch != nil {
			writeError(w, http.StatusBadRequest, errors.New("live sessions cannot seed by example or sketch"))
			return
		}
		if len(s.shardNodes) > 0 {
			writeError(w, http.StatusBadRequest, errors.New("live sessions are not served in cluster mode"))
			return
		}
	}
	snap := s.cfg.DB.Snapshot()
	rec, err := snap.Clip(req.Clip)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	if err := retrieval.ValidateDB(rec.VSs); err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	topK := req.TopK
	if topK == 0 {
		topK = s.cfg.DefaultTopK
	}
	if topK < 0 {
		writeError(w, http.StatusBadRequest, retrieval.ErrBadTopK)
		return
	}

	engine, err := core.EngineByName(req.Engine, nil)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if initial, err := initialEngine(req, rec); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	} else if initial != nil {
		engine = query.WithFeedback{Initial: initial, Learner: engine}
	}
	kind, cand, err := s.resolveIndex(r, &req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	base := engine
	engine, err = s.engineFor(base, rec, snap.Generation(), kind, cand)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}

	id, err := newSessionID()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	sess := &session{
		id:         id,
		clip:       rec.Name,
		engineName: engine.Name(),
		engine:     engine,
		db:         rec.VSs,
		topK:       topK,
		labels:     make(map[int]mil.Label),
		live:       req.Live,
		base:       base,
		kind:       kind,
		cand:       cand,
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	resp, err := s.runRound(ctx, sess, nil)
	if err != nil {
		s.writeRoundError(w, err)
		return
	}
	for range s.store.put(sess) {
		s.metrics.SessionsEvicted.Add(1)
		s.metrics.SessionsLive.Add(-1)
	}
	s.metrics.SessionsCreated.Add(1)
	s.metrics.SessionsLive.Add(1)
	writeJSON(w, http.StatusCreated, resp)
}

// resolveIndex determines a session's candidate-index settings. URL
// query parameters (?index=…&candidates=…) take precedence over the
// JSON body, which takes precedence over the server defaults; "exact"
// or "none" force exact ranking even when the server has a default
// index. The returned kind is empty for exact ranking.
func (s *Server) resolveIndex(r *http.Request, req *QueryRequest) (index.Kind, int, error) {
	name := req.Index
	if q := r.URL.Query().Get("index"); q != "" {
		name = q
	}
	if name == "" {
		name = s.cfg.DefaultIndex
	}
	switch name {
	case "", "exact", "none":
		return "", 0, nil
	}
	kind, err := index.ParseKind(name)
	if err != nil {
		return "", 0, err
	}
	cand := req.Candidates
	if q := r.URL.Query().Get("candidates"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			return "", 0, fmt.Errorf("bad candidates %q", q)
		}
		cand = v
	}
	if cand <= 0 {
		cand = s.cfg.DefaultCandidates
	}
	return kind, cand, nil
}

// engineFor wraps a session's base ranking engine in the pruned
// engine (shard.Engine) for one catalog snapshot. Its probes go to
// the cluster's shard workers over HTTP, or to in-process probers:
// one per ring partition when sharding in process, else one over the
// whole clip (S = 1). The engine reads the clip's stored heuristic
// order from the memo, which computes it on the first round that
// needs it: round 0 when base falls back to the §5.3 order
// (retrieval.OrderRanker), else the first pruned round.
// kind == "" returns base unchanged (exact ranking). Live sessions
// call it again every round with that round's snapshot.
func (s *Server) engineFor(base retrieval.Engine, rec *videodb.ClipRecord, gen uint64, kind index.Kind, cand int) (retrieval.Engine, error) {
	if kind == "" {
		return base, nil
	}
	entry := s.memo.get(rec.Name, rec.VSs)
	var probers []shard.Prober
	if len(s.shardNodes) > 0 {
		probers = s.clusterProbers(rec, kind)
	} else {
		var err error
		if probers, err = s.localProbers(rec.Name, entry, gen, kind); err != nil {
			return nil, err
		}
	}
	return &shard.Engine{
		Inner:   base,
		Probers: probers,
		C:       cand,
		Timeout: s.cfg.ShardTimeout,
		Stats:   s.engineStats,
		Fault:   s.shardFault,
		Order:   entry.heuristicOrder,
	}, nil
}

// named overrides an engine's reported name: a sketch seed is a
// ByExample under the hood, but the session should say so.
type named struct {
	retrieval.Engine
	name string
}

// Name implements retrieval.Engine.
func (n named) Name() string { return n.name }

// SeedProbes forwards retrieval.ProbeSeeder through the rename, so a
// wrapped seeding engine keeps seeding candidate probes.
func (n named) SeedProbes(db []window.VS) [][]float64 {
	if s, ok := n.Engine.(retrieval.ProbeSeeder); ok {
		return s.SeedProbes(db)
	}
	return nil
}

// initialEngine builds the optional example/sketch initial ranking
// engine from the request.
func initialEngine(req QueryRequest, rec *videodb.ClipRecord) (retrieval.Engine, error) {
	switch {
	case req.ExampleVS != nil:
		for _, vs := range rec.VSs {
			if vs.Index == *req.ExampleVS {
				ex, err := query.ExampleFromVS(vs)
				if err != nil {
					return nil, err
				}
				return ex, nil
			}
		}
		return nil, fmt.Errorf("clip %q has no VS %d", rec.Name, *req.ExampleVS)
	case req.Sketch != nil:
		model, err := event.ModelByName(rec.ModelName)
		if err != nil {
			return nil, err
		}
		pts := make([]geom.Point, len(req.Sketch.Points))
		for i, p := range req.Sketch.Points {
			pts[i] = geom.Point{X: p[0], Y: p[1]}
		}
		ex, err := query.BySketch(query.Sketch{
			Points:           pts,
			FramesPerSegment: req.Sketch.FramesPerSegment,
		}, model, rec.Window)
		if err != nil {
			return nil, err
		}
		return named{Engine: ex, name: "query-by-sketch"}, nil
	case req.Predicate != nil:
		env, err := predicate.RecordEnv(rec)
		if err != nil {
			return nil, err
		}
		// Compile validates the AST; structural problems surface here
		// as typed errors (predicate.ErrBadAST / ErrUnknownOp) and
		// become 400s.
		return predicate.Compile(req.Predicate, env)
	default:
		return nil, nil
	}
}

func (s *Server) handleRanking(w http.ResponseWriter, r *http.Request) {
	sess, _, err := s.sessionFor(r)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	k := 0
	if q := r.URL.Query().Get("k"); q != "" {
		k, err = strconv.Atoi(q)
		if err != nil || k <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad k %q", q))
			return
		}
	}
	sess.mu.Lock()
	resp := *sess.last
	// Live sessions swap db between rounds (under mu); last and db are
	// updated together, so this pairing is self-consistent.
	db := sess.db
	sess.mu.Unlock()
	if k > 0 {
		resp.TopK = topEntries(db, resp.Ranking, k)
	}
	writeJSON(w, http.StatusOK, &resp)
}

func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	sess, _, err := s.sessionFor(r)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	var req FeedbackRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Labels) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("feedback needs at least one label"))
		return
	}
	// Live sessions skip the known-VS check: a label can legitimately
	// name a window retention evicted after the client saw it ranked.
	// Engines look labels up by VS index while walking the database,
	// so labels on departed windows are harmlessly inert.
	if !sess.live {
		sess.mu.Lock()
		db := sess.db
		sess.mu.Unlock()
		// One scan of the catalog against the request's few labels,
		// stopping once every labeled VS has been found.
		found := make(map[int]bool, len(req.Labels))
		for _, l := range req.Labels {
			found[l.VS] = false
		}
		missing := len(found)
		for _, vs := range db {
			if f, ok := found[vs.Index]; ok && !f {
				found[vs.Index] = true
				if missing--; missing == 0 {
					break
				}
			}
		}
		for _, l := range req.Labels {
			if !found[l.VS] {
				writeError(w, http.StatusBadRequest, fmt.Errorf("label for unknown VS %d", l.VS))
				return
			}
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	resp, err := s.runRound(ctx, sess, req.Labels)
	if err != nil {
		s.writeRoundError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// CreateClipRequest ingests a synthetic clip into the live catalog —
// the write half of churn testing. The server synthesizes the feature
// content (same generator as the demo catalog) so the wire cost stays
// constant however large the clip is.
type CreateClipRequest struct {
	// Name is the catalog name for the new clip (required; must not
	// collide with an existing clip).
	Name string `json:"name"`
	// Seed drives the synthetic generator (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Scale multiplies the base 48-VS mix (default 1; capped at 100 to
	// bound a single request's work).
	Scale int `json:"scale,omitempty"`
}

// ClipResponse describes an ingested clip.
type ClipResponse struct {
	Name       string `json:"name"`
	VSCount    int    `json:"vs_count"`
	Generation uint64 `json:"generation"`
}

func (s *Server) handleCreateClip(w http.ResponseWriter, r *http.Request) {
	var req CreateClipRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Name == "" {
		writeError(w, http.StatusBadRequest, errors.New("clip needs a name"))
		return
	}
	if req.Scale > 100 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("scale %d exceeds the cap of 100", req.Scale))
		return
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	rec, err := ScaledDemoRecord(seed, req.Scale)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	rec.Name = req.Name
	if s.partRing != nil {
		// Shard worker: keep only the partition this worker owns. An
		// empty partition is acknowledged without storing — the clip
		// simply has no bags here, and /v1/scatter answers empty.
		rec = shard.PartitionRecord(s.partRing, rec, s.cfg.PartitionIndex)
		if rec == nil {
			writeJSON(w, http.StatusCreated, &ClipResponse{
				Name:       req.Name,
				Generation: s.cfg.DB.Generation(),
			})
			return
		}
	}
	if err := s.cfg.DB.Add(rec); err != nil {
		status := http.StatusConflict
		if !errors.Is(err, videodb.ErrDuplicate) {
			status = http.StatusUnprocessableEntity
		}
		writeError(w, status, err)
		return
	}
	// Coordinator: mirror the write to every shard worker (each
	// synthesizes the same record from the seed and keeps its own
	// partition). A failed forward leaves that worker without the
	// clip's bags — scattered rounds degrade to partial candidates,
	// counted, never corrupted.
	s.forwardToShards(r.Context(), func(ctx context.Context, c *Client) error {
		_, err := c.CreateClip(ctx, CreateClipRequest{Name: req.Name, Seed: seed, Scale: req.Scale})
		return err
	})
	writeJSON(w, http.StatusCreated, &ClipResponse{
		Name:       rec.Name,
		VSCount:    len(rec.VSs),
		Generation: s.cfg.DB.Generation(),
	})
}

func (s *Server) handleDeleteClip(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.cfg.DB.Remove(name); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	// Drop the deleted clip's cached index and partition state with
	// it: a later clip of the same name must not inherit stale
	// per-(clip, shard, kind) entries.
	s.dropClipState(name)
	s.forwardToShards(r.Context(), func(ctx context.Context, c *Client) error {
		err := c.DeleteClip(ctx, name)
		var apiErr *APIError
		if errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound {
			return nil // the worker owned none of the clip's bags
		}
		return err
	})
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.store.remove(id) {
		writeError(w, http.StatusNotFound, fmt.Errorf("%w: %q", ErrSessionNotFound, id))
		return
	}
	s.metrics.SessionsDeleted.Add(1)
	s.metrics.SessionsLive.Add(-1)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// dropClipState discards every piece of per-clip serving state the
// server caches outside the catalog: candidate indexes (all shards
// and kinds) and the memoized partition and heuristic order. Returns
// the number of index entries dropped.
func (s *Server) dropClipState(name string) int {
	n := s.indexes.dropClip(name)
	s.memo.drop(name)
	return n
}

// ApplyLive implements ingestd.Applier: the daemon pushes the feed
// clip's new VS database into every resident index entry for it the
// moment a segment commits, so the feed is queryable without waiting
// for the next session's pull-side reconciliation. Entries for shard
// partitions get their own slice of the new database.
func (s *Server) ApplyLive(clip string, vss []window.VS, gen uint64) (ingestd.ApplyOutcome, error) {
	var parts []shard.Part
	vssFor := func(sh int) []window.VS {
		if sh == wholeClipShard {
			return vss
		}
		if parts == nil {
			parts = s.memo.get(clip, vss).parts
		}
		if sh < 0 || sh >= len(parts) {
			return nil
		}
		return parts[sh].VSs
	}
	entries, inserted, deleted, rebuilds, err := s.indexes.applyLive(clip, gen, vssFor)
	return ingestd.ApplyOutcome{
		Entries:  entries,
		Inserted: inserted,
		Deleted:  deleted,
		Rebuilds: rebuilds,
	}, err
}

// DropClips implements ingestd.Applier for retention evictions.
func (s *Server) DropClips(names []string) int {
	n := 0
	for _, name := range names {
		n += s.dropClipState(name)
	}
	return n
}

// Stats assembles the service metrics.
func (s *Server) Stats() *StatsResponse {
	resp := &StatsResponse{
		SessionsLive:     s.metrics.SessionsLive.Load(),
		SessionsCreated:  s.metrics.SessionsCreated.Load(),
		SessionsEvicted:  s.metrics.SessionsEvicted.Load(),
		SessionsExpired:  s.metrics.SessionsExpired.Load(),
		SessionsDeleted:  s.metrics.SessionsDeleted.Load(),
		RoundsServed:     s.metrics.RoundsServed.Load(),
		RequestsRejected: s.metrics.RequestsRejected.Load(),
		Degraded: DegradationStats{
			RoundsTimedOut:   s.metrics.RoundsTimedOut.Load(),
			InjectedSlow:     s.metrics.InjectedSlow.Load(),
			InjectedFailures: s.metrics.InjectedFail.Load(),
			BodiesRejected:   s.metrics.BodiesRejected.Load(),
		},
		RerankLatency: s.metrics.Rerank.Summary(),
		Index: IndexStats{
			Builds:             s.metrics.IndexBuilds.Load(),
			CacheHits:          s.metrics.IndexCacheHits.Load(),
			IncrementalApplies: s.metrics.IndexApplies.Load(),
			ForcedRebuilds:     s.metrics.IndexRebuilds.Load(),
			PrunedRounds:       s.engineStats.PrunedRounds.Load(),
			FullRounds:         s.engineStats.FullRounds.Load(),
			SeededRounds:       s.engineStats.SeededRounds.Load(),
			Probes:             s.engineStats.Probes.Load(),
			DistEvals:          s.engineStats.DistEvals.Load(),
			CandidatesRanked:   s.engineStats.CandidatesRanked.Load(),
			BuildLatency:       s.metrics.IndexBuild.Summary(),
		},
	}
	tombstones, internalRebuilds, trainTime, _, _ := s.indexes.maintenance()
	resp.Index.Tombstones = int64(tombstones)
	resp.Index.ForcedRebuilds += int64(internalRebuilds)
	resp.Index.QuantizerTrainMs = ms(trainTime)
	if mode := s.shardMode(); mode != "" {
		resp.Shard = s.shardStatsJSON(mode)
	}
	if s.cfg.Ingest != nil {
		ist := s.cfg.Ingest.Stats()
		resp.Ingest = &ist
		resp.Live = &LiveStats{
			Rounds:  s.metrics.LiveRounds.Load(),
			Retries: s.metrics.LiveRetries.Load(),
		}
	}
	if len(s.shardNodes) > 0 {
		resp.Cluster = s.clusterStats()
	}
	return resp
}

// sessionFor resolves the request's session, updating expiry metrics
// when the lookup lazily expired one.
func (s *Server) sessionFor(r *http.Request) (*session, bool, error) {
	sess, expired, err := s.store.get(r.PathValue("id"))
	if expired {
		s.metrics.SessionsExpired.Add(1)
		s.metrics.SessionsLive.Add(-1)
	}
	if err != nil {
		return nil, expired, err
	}
	return sess, false, nil
}

// runRound executes one retrieval round for the session: apply the
// new labels, rank under a worker slot, record the round. Per-session
// rounds serialize on sess.mu; the semaphore bounds cross-session
// concurrency. The slot is acquired before the session lock so a
// session queued behind a slow sibling round doesn't pin a worker.
func (s *Server) runRound(ctx context.Context, sess *session, labels []FeedbackLabel) (*RoundResponse, error) {
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-ctx.Done():
		s.metrics.RequestsRejected.Add(1)
		return nil, fmt.Errorf("server: re-rank queue: %w", ctx.Err())
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if err := ctx.Err(); err != nil {
		s.metrics.RequestsRejected.Add(1)
		return nil, fmt.Errorf("server: re-rank queue: %w", err)
	}
	if err := s.injectRoundFault(ctx); err != nil {
		return nil, err
	}
	for _, l := range labels {
		if l.Relevant {
			sess.labels[l.VS] = mil.Positive
		} else {
			sess.labels[l.VS] = mil.Negative
		}
	}
	if err := s.refreshLive(sess); err != nil {
		return nil, err
	}
	start := time.Now()
	ranking, top, err := retrieval.RankRoundCtx(ctx, sess.engine, sess.db, sess.labels, sess.topK)
	for sess.live && errors.Is(err, retrieval.ErrStaleIndex) && ctx.Err() == nil {
		// The ingest daemon applied a commit to the shared live index
		// between this round's snapshot resolution and its probe.
		// Re-resolve against the now-current catalog and re-rank; the
		// loop converges because commits are far slower than a refresh
		// and is bounded by the round's deadline regardless.
		s.metrics.LiveRetries.Add(1)
		if err = s.refreshLive(sess); err != nil {
			return nil, err
		}
		ranking, top, err = retrieval.RankRoundCtx(ctx, sess.engine, sess.db, sess.labels, sess.topK)
	}
	if err != nil {
		return nil, err
	}
	if sess.live {
		s.metrics.LiveRounds.Add(1)
	}
	s.metrics.Rerank.Observe(time.Since(start))
	s.metrics.RoundsServed.Add(1)

	entries := make([]RankingEntry, len(top))
	for i, dbPos := range top {
		vs := sess.db[dbPos]
		entries[i] = RankingEntry{
			VS:         vs.Index,
			StartFrame: vs.StartFrame,
			EndFrame:   vs.EndFrame,
			TSCount:    len(vs.TSs),
		}
	}
	indices := make([]int, len(ranking))
	for i, dbPos := range ranking {
		indices[i] = sess.db[dbPos].Index
	}
	resp := &RoundResponse{
		Session: sess.id,
		Clip:    sess.clip,
		Engine:  sess.engineName,
		Round:   sess.round,
		DBSize:  len(sess.db),
		TopK:    entries,
		Ranking: indices,
	}
	sess.round++
	sess.last = resp
	return resp, nil
}

// refreshLive re-resolves a live session's database and engine from a
// fresh catalog snapshot, so the round about to run covers everything
// the ingest daemon has committed and retained. A no-op for pinned
// sessions. The caller holds sess.mu.
func (s *Server) refreshLive(sess *session) error {
	if !sess.live {
		return nil
	}
	snap := s.cfg.DB.Snapshot()
	rec, err := snap.Clip(sess.clip)
	if err != nil {
		return err
	}
	engine, err := s.engineFor(sess.base, rec, snap.Generation(), sess.kind, sess.cand)
	if err != nil {
		return err
	}
	sess.db = rec.VSs
	sess.engine = engine
	return nil
}

// topEntries rebuilds the first k ranking entries from a stored
// ranking (VS indices).
func topEntries(db []window.VS, ranking []int, k int) []RankingEntry {
	if k > len(ranking) {
		k = len(ranking)
	}
	byIndex := make(map[int]window.VS, len(db))
	for _, vs := range db {
		byIndex[vs.Index] = vs
	}
	out := make([]RankingEntry, 0, k)
	for _, idx := range ranking[:k] {
		vs := byIndex[idx]
		out = append(out, RankingEntry{
			VS:         vs.Index,
			StartFrame: vs.StartFrame,
			EndFrame:   vs.EndFrame,
			TSCount:    len(vs.TSs),
		})
	}
	return out
}

// injectRoundFault applies the configured chaos injector to one round
// attempt: an injected stall sleeps under the round's deadline (a
// stall that outlives it degrades to the usual deadline 503), and an
// injected failure aborts the round with an ErrTransient-wrapping
// error that writeRoundError maps to 503 + Retry-After. With a nil or
// zero-rate injector this is a no-op.
func (s *Server) injectRoundFault(ctx context.Context) error {
	inj := s.cfg.Faults
	if !inj.Enabled() {
		return nil
	}
	seq := s.roundSeq.Add(1) - 1
	stall, err := inj.RerankFault(seq)
	if stall > 0 {
		s.metrics.InjectedSlow.Add(1)
		t := time.NewTimer(stall)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			s.metrics.RoundsTimedOut.Add(1)
			return fmt.Errorf("server: re-rank stalled past deadline: %w", ctx.Err())
		}
	}
	if err != nil {
		s.metrics.InjectedFail.Add(1)
		return fmt.Errorf("server: re-rank failed: %w", err)
	}
	return nil
}

// writeRoundError maps round-execution failures onto HTTP statuses.
// Overload-shaped failures — deadline hits, shutdown cancels and
// injected re-rank faults — are 503 with a Retry-After hint, telling
// clients the service degraded rather than broke.
func (s *Server) writeRoundError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled),
		errors.Is(err, faults.ErrTransient):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, retrieval.ErrEmptyDB),
		errors.Is(err, retrieval.ErrBadTopK),
		errors.Is(err, retrieval.ErrDuplicateIndex):
		writeError(w, http.StatusUnprocessableEntity, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, ErrorResponse{Error: err.Error()})
}
