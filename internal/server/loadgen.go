package server

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"milvideo/internal/core"
	"milvideo/internal/predicate"
	"milvideo/internal/sim"
	"milvideo/internal/videodb"
)

// Judge is the load generator's stand-in for the paper's human user:
// it judges a returned result from what the wire carries — the VS
// index and its frame span.
type Judge func(e RankingEntry) bool

// JudgeFromRecord builds a ground-truth Judge from a stored clip's
// incident log (nil pred selects accidents) — the same relevance test
// the offline oracle applies, lifted onto wire entries.
func JudgeFromRecord(rec *videodb.ClipRecord, pred func(sim.IncidentType) bool) (Judge, error) {
	if rec == nil {
		return nil, fmt.Errorf("server: nil record")
	}
	if len(rec.Incidents) == 0 {
		return nil, fmt.Errorf("server: clip %q has no incident ground truth", rec.Name)
	}
	if pred == nil {
		pred = func(t sim.IncidentType) bool { return t.IsAccident() }
	}
	incidents := rec.Incidents
	need := rec.Window.SampleRate
	if need < 1 {
		need = 1
	}
	return func(e RankingEntry) bool {
		return core.IncidentOverlap(incidents, pred, e.StartFrame, e.EndFrame, need)
	}, nil
}

// RelevantVSCount counts the clip's ground-truth-relevant windows
// under judge — the recall denominator for LoadGen.TotalRelevant.
func RelevantVSCount(rec *videodb.ClipRecord, judge Judge) int {
	n := 0
	for _, vs := range rec.VSs {
		if judge(RankingEntry{VS: vs.Index, StartFrame: vs.StartFrame, EndFrame: vs.EndFrame, TSCount: len(vs.TSs)}) {
			n++
		}
	}
	return n
}

// DemoPredicates returns the canned structured queries the demo
// catalog is staged for (see annotateKinematics): each matches
// exactly the relevant VSs' crash choreography from a different
// angle, so a seeded mix of them shares one ground truth. The first
// is the fully composed acceptance query — a vehicle stops in the
// frame-center region, then another arrives eastbound through it
// within 5 seconds.
func DemoPredicates() []*predicate.Node {
	east := 0.0
	region := func() *predicate.Node {
		return &predicate.Node{Op: predicate.OpRegion, Rect: []float64{0.25, 0.25, 0.75, 0.75}}
	}
	return []*predicate.Node{
		{
			Op: predicate.OpSeq,
			A: &predicate.Node{Op: predicate.OpAnd, Args: []*predicate.Node{
				{Op: predicate.OpStop}, region(),
			}},
			B: &predicate.Node{Op: predicate.OpAnd, Args: []*predicate.Node{
				{Op: predicate.OpGo}, {Op: predicate.OpDirection, Heading: &east}, region(),
			}},
			Within: 5,
		},
		{Op: predicate.OpAnd, Args: []*predicate.Node{{Op: predicate.OpStop}, region()}},
		{Op: predicate.OpAnd, Args: []*predicate.Node{
			{Op: predicate.OpStop}, {Op: predicate.OpClass, Class: "car"},
		}},
	}
}

// LoadGen is a closed-loop load generator: Sessions concurrent
// clients each run a full relevance-feedback session (query, Rounds−1
// feedback rounds judged by Judge, a ranking read, then delete),
// immediately issuing the next request when the previous one
// completes.
type LoadGen struct {
	Client *Client
	Clip   string
	// Engine forwards to QueryRequest.Engine ("" = mil).
	Engine string
	// Sessions is the concurrent session count (≤ 0 means 1).
	Sessions int
	// Rounds is the total rounds per session including the initial
	// one (≤ 0 means 5, the paper's protocol).
	Rounds int
	// TopK is the per-round result count (0 = server default).
	TopK int
	// Index forwards to QueryRequest.Index: the candidate index every
	// session requests ("" = server default, "exact" forces exact).
	Index string
	// Candidates forwards to QueryRequest.Candidates (0 = server
	// default C).
	Candidates int
	// Judge labels returned results; required.
	Judge Judge
	// Predicates, when non-empty, seeds every session with a
	// structured predicate query — session w uses Predicates[w mod
	// len] — so round 0 ranks by the compiled predicate and feedback
	// rounds hand over to the MIL learner.
	Predicates []*predicate.Node
	// TotalRelevant is the queried clip's ground-truth incident count.
	// When > 0 the report carries RoundRecall: per-round recall of the
	// judged top-k against it, averaged across sessions.
	TotalRelevant int
	// Churn, when true, interleaves catalog writes with the query
	// load: before the sessions start, one priming session builds the
	// candidate index and one synthetic clip is ingested (so the very
	// first main-session query must reconcile a newer catalog
	// generation — deterministically exercising the incremental
	// maintenance path), then a background mutator keeps adding and
	// removing clips until the sessions finish. Queries rank against
	// snapshots, so churn must never drop a round.
	Churn bool
	// ShardURLs, when set, also snapshots each listed shard worker's
	// /v1/stats after the run (the per-shard breakdown of a cluster
	// run; the coordinator's own stats carry per-shard scatter
	// latency already, this adds each worker's index and probe
	// counters). An unreachable worker yields a null entry.
	ShardURLs []string
	// Live drives an always-on ingest deployment instead of a static
	// catalog: the run first waits (up to LiveWait) for the server's
	// ingest daemon to commit its first segment, then each of the
	// Sessions workers loops full feedback sessions over the live
	// feed back-to-back until Duration elapses. Judge may be nil in
	// live mode — a deterministic stand-in labels multi-trajectory
	// windows relevant, enough to exercise the probe path against a
	// catalog that changes under the session. Zero DroppedRounds is
	// the pass criterion: commits, evictions and compactions must
	// never cost a round.
	Live bool
	// Duration bounds a live run (≤ 0 means 10s); LiveWait bounds the
	// wait for the feed to become queryable (≤ 0 means 30s).
	Duration time.Duration
	LiveWait time.Duration
}

// OpStats are exact latency percentiles for one operation type.
type OpStats struct {
	Count int     `json:"count"`
	P50Ms float64 `json:"p50_ms"`
	P90Ms float64 `json:"p90_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
}

// Report is a finished load run.
type Report struct {
	Sessions      int     `json:"sessions"`
	RoundsPerSess int     `json:"rounds_per_session"`
	RoundsServed  int     `json:"rounds_served"`
	DroppedRounds int     `json:"dropped_rounds"`
	EmptyRankings int     `json:"empty_rankings"`
	DurationSec   float64 `json:"duration_sec"`
	RoundsPerSec  float64 `json:"rounds_per_sec"`
	// FinalAccuracyMean averages the last round's top-k precision
	// across sessions — sanity that the loop actually learns.
	FinalAccuracyMean float64 `json:"final_accuracy_mean"`
	// RoundRecall is the per-round recall of the judged top-k against
	// the clip's TotalRelevant incidents, averaged across sessions —
	// present only when LoadGen.TotalRelevant is set. Feedback must
	// not lose ground: CI asserts the series is non-decreasing.
	RoundRecall []float64 `json:"round_recall,omitempty"`
	// Latency holds exact client-side percentiles per operation
	// ("query", "feedback", "ranking").
	Latency map[string]OpStats `json:"latency"`
	// MutationsApplied counts catalog writes (clip ingests and
	// removals) the churn mutator completed during the run.
	MutationsApplied int `json:"mutations_applied"`
	// ServerStats snapshots /v1/stats after the run.
	ServerStats *StatsResponse `json:"server_stats,omitempty"`
	// ShardStats snapshots each shard worker's /v1/stats after the
	// run, parallel to LoadGen.ShardURLs (cluster runs only; null for
	// an unreachable worker).
	ShardStats []*StatsResponse `json:"shard_stats,omitempty"`
	// Errors samples failures (capped at 8).
	Errors []string `json:"errors,omitempty"`
}

// waitForFeed polls /v1/stats until the server's ingest daemon has
// committed its first segment (the feed clip is then queryable), or
// the wait budget runs out. A server without an ingest daemon fails
// immediately — live load is meaningless against a static catalog.
func (lg *LoadGen) waitForFeed(ctx context.Context) error {
	wait := lg.LiveWait
	if wait <= 0 {
		wait = 30 * time.Second
	}
	deadline := time.Now().Add(wait)
	for {
		st, err := lg.Client.Stats(ctx)
		if err == nil {
			if st.Ingest == nil {
				return fmt.Errorf("server: live load needs a server with an ingest daemon")
			}
			if st.Ingest.Committed > 0 {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server: ingest feed not queryable within %s", wait)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// lat collects per-op latencies under a mutex (exact percentiles beat
// streaming sketches at load-test sample counts).
type lat struct {
	mu sync.Mutex
	m  map[string][]time.Duration
}

func (l *lat) add(op string, d time.Duration) {
	l.mu.Lock()
	l.m[op] = append(l.m[op], d)
	l.mu.Unlock()
}

func (l *lat) stats() map[string]OpStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]OpStats, len(l.m))
	for op, ds := range l.m {
		sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
		// Nearest rank: percentile p is the ⌈p·n⌉-th smallest sample,
		// the rule stats.LatencyHistogram and perfbench read by.
		q := func(p float64) float64 {
			if len(ds) == 0 {
				return 0
			}
			i := max(int(math.Ceil(p*float64(len(ds)))), 1) - 1
			return ms(ds[i])
		}
		out[op] = OpStats{
			Count: len(ds),
			P50Ms: q(0.50),
			P90Ms: q(0.90),
			P99Ms: q(0.99),
			MaxMs: ms(ds[len(ds)-1]),
		}
	}
	return out
}

// Run executes the load: all sessions run concurrently to completion
// (or ctx cancellation). The returned Report is always non-nil; a
// non-nil error means the run itself could not execute (e.g. nil
// Judge), not that individual rounds failed — those are counted in
// DroppedRounds and sampled in Errors.
func (lg *LoadGen) Run(ctx context.Context) (*Report, error) {
	if lg.Client == nil {
		return nil, fmt.Errorf("server: loadgen needs a client")
	}
	if lg.Live {
		if err := lg.waitForFeed(ctx); err != nil {
			return nil, err
		}
		if lg.Judge == nil {
			// Deterministic stand-in for ground truth the client can't
			// see: busy windows (several tracked vehicles) judged
			// relevant. Enough positive feedback to exercise the
			// candidate-probe path against the mutating feed.
			lg.Judge = func(e RankingEntry) bool { return e.TSCount >= 2 }
		}
	}
	if lg.Judge == nil {
		return nil, fmt.Errorf("server: loadgen needs a judge")
	}
	sessions := lg.Sessions
	if sessions <= 0 {
		sessions = 1
	}
	rounds := lg.Rounds
	if rounds <= 0 {
		rounds = 5
	}

	var (
		mu        sync.Mutex
		served    int
		dropped   int
		empty     int
		accSum    float64
		accCount  int
		recallSum = make([]float64, rounds)
		recallN   = make([]int, rounds)
		errs      []string
	)
	fail := func(err error) {
		mu.Lock()
		dropped++
		if len(errs) < 8 {
			errs = append(errs, err.Error())
		}
		mu.Unlock()
	}
	ok := func(resp *RoundResponse) {
		mu.Lock()
		served++
		if len(resp.TopK) == 0 {
			empty++
		}
		if lg.TotalRelevant > 0 && resp.Round >= 0 && resp.Round < rounds && len(resp.TopK) > 0 {
			rel := 0
			for _, e := range resp.TopK {
				if lg.Judge(e) {
					rel++
				}
			}
			denom := lg.TotalRelevant
			if len(resp.TopK) < denom {
				denom = len(resp.TopK)
			}
			recallSum[resp.Round] += float64(rel) / float64(denom)
			recallN[resp.Round]++
		}
		mu.Unlock()
	}

	latencies := &lat{m: make(map[string][]time.Duration)}
	start := time.Now()

	var mutations atomic.Int64
	churnStop := make(chan struct{})
	churnDone := make(chan struct{})
	if lg.Churn {
		// Deterministic priming: build the index at the current
		// generation, then bump the generation with an ingest the
		// queried clip is not part of. The first main-session query now
		// has to carry the cached index across a generation — the
		// incremental-apply path — before any races begin.
		if resp, err := lg.Client.Query(ctx, QueryRequest{
			Clip: lg.Clip, Engine: lg.Engine, TopK: lg.TopK,
			Index: lg.Index, Candidates: lg.Candidates,
		}); err != nil {
			fail(fmt.Errorf("churn priming query: %w", err))
		} else {
			_ = lg.Client.Delete(ctx, resp.Session)
		}
		if _, err := lg.Client.CreateClip(ctx, CreateClipRequest{Name: "churn-prime", Seed: 2}); err != nil {
			fail(fmt.Errorf("churn priming ingest: %w", err))
		} else {
			mutations.Add(1)
		}
		go func() {
			defer close(churnDone)
			for i := 0; ; i++ {
				select {
				case <-churnStop:
					return
				case <-ctx.Done():
					return
				case <-time.After(2 * time.Millisecond):
				}
				name := fmt.Sprintf("churn-%d", i)
				if _, err := lg.Client.CreateClip(ctx, CreateClipRequest{Name: name, Seed: int64(3 + i)}); err != nil {
					continue
				}
				mutations.Add(1)
				if lg.Client.DeleteClip(ctx, name) == nil {
					mutations.Add(1)
				}
			}
		}()
	} else {
		close(churnDone)
	}

	runSession := func(worker int) {
		var pred *predicate.Node
		if len(lg.Predicates) > 0 {
			pred = lg.Predicates[worker%len(lg.Predicates)]
		}
		t0 := time.Now()
		resp, err := lg.Client.Query(ctx, QueryRequest{
			Clip: lg.Clip, Engine: lg.Engine, TopK: lg.TopK,
			Index: lg.Index, Candidates: lg.Candidates, Live: lg.Live,
			Predicate: pred,
		})
		latencies.add("query", time.Since(t0))
		if err != nil {
			fail(fmt.Errorf("query: %w", err))
			return
		}
		ok(resp)
		id := resp.Session
		for r := 1; r < rounds; r++ {
			labels := make([]FeedbackLabel, len(resp.TopK))
			for i, e := range resp.TopK {
				labels[i] = FeedbackLabel{VS: e.VS, Relevant: lg.Judge(e)}
			}
			t0 = time.Now()
			resp, err = lg.Client.Feedback(ctx, id, labels)
			latencies.add("feedback", time.Since(t0))
			if err != nil {
				fail(fmt.Errorf("feedback round %d: %w", r, err))
				return
			}
			if resp.Round != r {
				fail(fmt.Errorf("feedback round %d came back as round %d", r, resp.Round))
				return
			}
			ok(resp)
		}
		// Final accuracy of the last round, judged client-side.
		if len(resp.TopK) > 0 {
			rel := 0
			for _, e := range resp.TopK {
				if lg.Judge(e) {
					rel++
				}
			}
			mu.Lock()
			accSum += float64(rel) / float64(len(resp.TopK))
			accCount++
			mu.Unlock()
		}
		t0 = time.Now()
		if _, err := lg.Client.Ranking(ctx, id, 0); err != nil {
			latencies.add("ranking", time.Since(t0))
			fail(fmt.Errorf("ranking: %w", err))
			return
		}
		latencies.add("ranking", time.Since(t0))
		if err := lg.Client.Delete(ctx, id); err != nil {
			fail(fmt.Errorf("delete: %w", err))
		}
	}

	// Live runs loop sessions back-to-back until Duration elapses;
	// static runs execute exactly one session per worker.
	liveStop := make(chan struct{})
	if lg.Live {
		dur := lg.Duration
		if dur <= 0 {
			dur = 10 * time.Second
		}
		timer := time.AfterFunc(dur, func() { close(liveStop) })
		defer timer.Stop()
	}
	var wg sync.WaitGroup
	for w := 0; w < sessions; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			runSession(worker)
			if !lg.Live {
				return
			}
			for {
				select {
				case <-liveStop:
					return
				case <-ctx.Done():
					return
				default:
					runSession(worker)
				}
			}
		}(w)
	}
	wg.Wait()
	close(churnStop)
	<-churnDone
	elapsed := time.Since(start)

	rep := &Report{
		Sessions:      sessions,
		RoundsPerSess: rounds,
		RoundsServed:  served,
		DroppedRounds: dropped,
		EmptyRankings: empty,
		DurationSec:   elapsed.Seconds(),
		Latency:       latencies.stats(),
		Errors:        errs,
	}
	rep.MutationsApplied = int(mutations.Load())
	if elapsed > 0 {
		rep.RoundsPerSec = float64(served) / elapsed.Seconds()
	}
	if accCount > 0 {
		rep.FinalAccuracyMean = accSum / float64(accCount)
	}
	if lg.TotalRelevant > 0 {
		rep.RoundRecall = make([]float64, rounds)
		for r := 0; r < rounds; r++ {
			if recallN[r] > 0 {
				rep.RoundRecall[r] = recallSum[r] / float64(recallN[r])
			}
		}
	}
	if stats, err := lg.Client.Stats(ctx); err == nil {
		rep.ServerStats = stats
	}
	for _, u := range lg.ShardURLs {
		sc := &Client{BaseURL: u, HTTP: lg.Client.HTTP}
		stats, err := sc.Stats(ctx)
		if err != nil {
			stats = nil
		}
		rep.ShardStats = append(rep.ShardStats, stats)
	}
	return rep, nil
}
