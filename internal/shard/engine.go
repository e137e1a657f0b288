package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"milvideo/internal/index"
	"milvideo/internal/mil"
	"milvideo/internal/retrieval"
	"milvideo/internal/window"
)

// Hit is one shard's answer for one bag: the bag's global VS index
// and the minimum Euclidean distance from any probe to any of its
// instances (to their reconstructions on a quantized index). Dist < 0
// encodes +Inf — the bag is on the shard but no probe reached it
// (JSON cannot carry +Inf, so the wire uses the sentinel). Such
// completion hits exist so that when the per-shard budget covers a
// whole partition the shard answers with every bag it owns, which is
// what lets a C ≥ N scatter reassemble the entire database and
// reproduce the unsharded ranking.
type Hit struct {
	VS   int     `json:"vs"`
	Dist float64 `json:"dist"`
}

// Prober answers a scatter probe for one shard: the shard's top-c
// candidate bags by distance. Probers must be safe for concurrent
// use. LocalProber serves an in-process partition; the server's HTTP
// prober forwards to a shard worker's /v1/scatter endpoint.
type Prober interface {
	Probe(ctx context.Context, probes [][]float64, c int) ([]Hit, index.ProbeStats, error)
}

// BoundedProber is the optional fast path of the scout-and-carry
// scatter. ProbeBounded is Probe plus per-probe pruning radii in
// (bounds; nil = unbounded) and per-probe achieved k-th-neighbor
// distances out — the bounds a scout shard exports and the carried
// shards prune by. A prober that cannot honor bounds (the HTTP
// prober) simply doesn't implement this; the engine falls back to
// Probe and the scatter stays a plain fan-out.
type BoundedProber interface {
	ProbeBounded(ctx context.Context, probes [][]float64, c int, bounds []float64) ([]Hit, []float64, index.ProbeStats, error)
}

// LocalProber probes an in-process partition: the partition's VSs
// and a BagIndex built over exactly them, in the same order.
type LocalProber struct {
	VSs   []window.VS
	Index *index.BagIndex
}

// Probe implements Prober.
func (p LocalProber) Probe(ctx context.Context, probes [][]float64, c int) ([]Hit, index.ProbeStats, error) {
	hits, _, stats, err := p.ProbeBounded(ctx, probes, c, nil)
	return hits, stats, err
}

// ProbeBounded implements BoundedProber.
func (p LocalProber) ProbeBounded(ctx context.Context, probes [][]float64, c int, bounds []float64) ([]Hit, []float64, index.ProbeStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, index.ProbeStats{}, err
	}
	return ProbeLocalBound(p.VSs, p.Index, probes, c, bounds)
}

// ProbeLocal answers one shard's scatter probe from its partition
// and index: the local top-c candidate bags as (VS index, distance)
// hits. When c covers the whole partition, every unprobed bag is
// appended as a completion hit (Dist = -1, i.e. +Inf) — the
// exactness rule above.
func ProbeLocal(vss []window.VS, bi *index.BagIndex, probes [][]float64, c int) ([]Hit, index.ProbeStats, error) {
	hits, _, stats, err := ProbeLocalBound(vss, bi, probes, c, nil)
	return hits, stats, err
}

// ProbeLocalBound is ProbeLocal with carried pruning bounds in and
// scout bounds out (see BoundedProber). The completion rule is
// unchanged and is what keeps carried pruning off the exactness
// path: when c covers the partition, every bag the bounded probe
// skipped still goes out as a completion hit, so a C ≥ N scatter
// reassembles the whole database no matter how tight the bounds were.
func ProbeLocalBound(vss []window.VS, bi *index.BagIndex, probes [][]float64, c int, bounds []float64) ([]Hit, []float64, index.ProbeStats, error) {
	if len(vss) == 0 || c <= 0 {
		return nil, nil, index.ProbeStats{}, nil
	}
	if bi == nil {
		return nil, nil, index.ProbeStats{}, fmt.Errorf("shard: nil index for a %d-bag partition", len(vss))
	}
	hits, kth, stats, err := bi.CandidatesOver(vss, probes, c, bounds)
	if err != nil {
		return nil, nil, index.ProbeStats{}, fmt.Errorf("shard: %w", err)
	}
	out := make([]Hit, 0, len(hits))
	for _, h := range hits {
		out = append(out, Hit{VS: vss[h.Pos].Index, Dist: h.Dist})
	}
	if c >= len(vss) && len(out) < len(vss) {
		probed := make([]bool, len(vss))
		for _, h := range hits {
			probed[h.Pos] = true
		}
		for pos := range vss {
			if !probed[pos] {
				out = append(out, Hit{VS: vss[pos].Index, Dist: -1})
			}
		}
	}
	return out, kth, stats, nil
}

// PositiveProbes gathers the flattened instance vectors of every
// positively labeled bag — the probe set the accumulated relevant
// feedback defines, the same rule retrieval.CandidateEngine applies.
func PositiveProbes(db []window.VS, labels map[int]mil.Label) [][]float64 {
	var probes [][]float64
	for _, vs := range db {
		if labels[vs.Index] != mil.Positive {
			continue
		}
		for _, ts := range vs.TSs {
			probes = append(probes, ts.Flat())
		}
	}
	return probes
}

// Stats accumulates a sharded engine's work across rounds
// (atomically; one instance can be shared by every session of a
// server and read while rounds run).
type Stats struct {
	// ScatterRounds counts rounds served through the scatter–gather
	// path; FullRounds counts delegations to the inner engine (no
	// positive probes yet, no shards, or C disabled).
	ScatterRounds atomic.Int64
	FullRounds    atomic.Int64
	// PartialRounds counts scattered rounds in which at least one
	// shard failed or timed out and the merge continued over the
	// survivors; AllFailedRounds counts rounds every shard was lost
	// and the engine fell back to an exact full rank.
	PartialRounds   atomic.Int64
	AllFailedRounds atomic.Int64
	// ShardTimeouts counts per-shard probes lost to their deadline;
	// ShardErrors counts probes lost to any other failure.
	ShardTimeouts atomic.Int64
	ShardErrors   atomic.Int64
	// InjectedStalls and InjectedFailures count chaos-hook firings.
	InjectedStalls   atomic.Int64
	InjectedFailures atomic.Int64
	// BoundedShardProbes counts carried-wave shard probes that ran
	// with a scout bound (the pruned fast path).
	BoundedShardProbes atomic.Int64
	// Probes and DistEvals total the surviving shards' index work;
	// MergedCandidates totals the sizes of the merged candidate sets.
	Probes           atomic.Int64
	DistEvals        atomic.Int64
	MergedCandidates atomic.Int64
	// ScatterNs and MergeNs split a round's pre-re-rank wall time:
	// the bounded parallel probe fan-out vs the distance merge.
	ScatterNs atomic.Int64
	MergeNs   atomic.Int64
	// SeededRounds counts scattered rounds whose probes came from a
	// ProbeSeeder (no positive feedback yet) rather than labels.
	SeededRounds atomic.Int64
}

// Engine fans a query's positive-instance probes across shards,
// merges the per-shard candidate sets by distance into a global
// top-C, and re-ranks the union (plus every labeled bag) with the
// unchanged exact engine. C ≥ len(db) provably reproduces the
// unsharded exact ranking: the full budget goes to every shard, each
// shard then returns its complete partition (real distances for
// probed bags, completion hits for the rest), the merged union is
// the whole database, and the inner engine ranks all of it — the
// same C=N contract retrieval.CandidateEngine pins, across shards.
// Below that, each shard is asked only for its expected share of the
// global top C plus slack (see perShardC), and the scatter runs
// scout-and-carry: shard 0 probes first and its per-probe k-th
// distances become initial pruning radii for every other shard,
// which is where the speedup lives — the carried wave's searches are
// neighborhood-ball-sized instead of catalog-sized. A shard that
// times out or fails is dropped from the round: partial results with
// counters, never a failed query (a lost scout costs only the
// pruning). Only when every shard is lost does the engine fall back
// to an exact full rank.
type Engine struct {
	// Inner is the exact ranker re-ranking the merged union.
	Inner retrieval.Engine
	// Probers answer per-shard probes; Probers[i] is shard i.
	Probers []Prober
	// C caps the merged global candidate set (same contract as
	// retrieval.CandidateEngine.C; <= 0 disables the scatter path).
	C int
	// Timeout bounds each shard's probe (0 = only the round context).
	Timeout time.Duration
	// Workers bounds concurrent shard probes (0 = all shards at once).
	Workers int
	// Seeder, when non-nil, supplies probes for rounds with no
	// positive feedback (e.g. a predicate query's best-scoring
	// instances), so the scatter path covers round 0 too. Left nil,
	// Inner itself is consulted when it implements
	// retrieval.ProbeSeeder. C ≥ len(db) identity is unaffected: a
	// seeded full-budget scatter still reassembles every partition
	// through completion hits.
	Seeder retrieval.ProbeSeeder
	// Stats, when non-nil, accumulates scatter counters.
	Stats *Stats
	// Order is the stored heuristic order scattered rounds filter for
	// their remainder (retrieval.CandidateEngine.Order's contract).
	Order func() []int
	// Fault, when non-nil, is consulted per (shard, round): a
	// positive stall delays that shard's probe, a non-nil error fails
	// it — the deterministic chaos hook (faults.Injector.ShardFault).
	Fault func(shard int, seq uint64) (stall time.Duration, err error)

	// seq numbers scattered rounds for the fault hook.
	seq atomic.Uint64
}

// Name implements retrieval.Engine.
func (e *Engine) Name() string {
	inner := "?"
	if e.Inner != nil {
		inner = e.Inner.Name()
	}
	return fmt.Sprintf("sharded(S=%d,C=%d)/%s", len(e.Probers), e.C, inner)
}

// Rank implements retrieval.Engine.
func (e *Engine) Rank(db []window.VS, labels map[int]mil.Label) ([]int, error) {
	return e.RankCtx(context.Background(), db, labels)
}

type shardAnswer struct {
	hits  []Hit
	kth   []float64 // per-probe achieved k-th distances (scout bounds)
	stats index.ProbeStats
	err   error
}

// RankCtx implements retrieval.ContextEngine.
func (e *Engine) RankCtx(ctx context.Context, db []window.VS, labels map[int]mil.Label) ([]int, error) {
	if e.Inner == nil {
		return nil, retrieval.ErrNilEngine
	}
	if len(e.Probers) == 0 || e.C <= 0 {
		return e.full(db, labels)
	}
	probes := PositiveProbes(db, labels)
	if len(probes) == 0 {
		// No feedback yet: let the query engine seed probes, if it can.
		seeder := e.Seeder
		if seeder == nil {
			seeder, _ = e.Inner.(retrieval.ProbeSeeder)
		}
		if seeder != nil {
			if probes = seeder.SeedProbes(db); len(probes) > 0 && e.Stats != nil {
				e.Stats.SeededRounds.Add(1)
			}
		}
	}
	if len(probes) == 0 {
		return e.full(db, labels)
	}
	seq := e.seq.Add(1) - 1
	cs := e.perShardC(len(db))

	// Scatter, scout-and-carry: shard 0 probes first with the full
	// per-shard budget and exports its per-probe k-th-neighbor
	// distances. With bags spread uniformly by the ring, shard 0's
	// cs-th distance sits at the same quantile of its partition as the
	// global C-th does of the whole catalog, so it is a sound — and
	// tight — initial pruning radius for every other shard: the
	// carried wave's searches skip the loose-tau descent that
	// dominates an unbounded probe and visit only the true
	// neighborhood ball. The carried shards then fan out under the
	// worker bound, each probe behind its own deadline. A lost scout
	// only costs the optimization: the carried wave runs unbounded.
	answers := make([]shardAnswer, len(e.Probers))
	start := time.Now()
	answers[0] = e.probeShard(ctx, 0, seq, probes, cs, nil)
	var bounds []float64
	if answers[0].err == nil {
		bounds = answers[0].kth
	}
	workers := e.Workers
	if workers <= 0 || workers > len(e.Probers) {
		workers = len(e.Probers)
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := 1; i < len(e.Probers); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			answers[i] = e.probeShard(ctx, i, seq, probes, cs, bounds)
		}(i)
	}
	wg.Wait()
	scatter := time.Since(start)

	// Gather: keep each bag's best distance over shards, order by
	// (distance, database position) — deterministic whatever the
	// goroutine schedule, since each VS lives on exactly one shard —
	// and cut to the global top C.
	start = time.Now()
	pos := make(map[int]int, len(db))
	for p, vs := range db {
		pos[vs.Index] = p
	}
	best := make(map[int]float64, 2*cs)
	failed := 0
	var pstats index.ProbeStats
	for _, a := range answers {
		if a.err != nil {
			failed++
			continue
		}
		pstats.Probes += a.stats.Probes
		pstats.DistEvals += a.stats.DistEvals
		for _, h := range a.hits {
			p, ok := pos[h.VS]
			if !ok {
				// A worker whose catalog view ran ahead of (or behind)
				// this database may answer with bags it no longer
				// holds; they cannot be ranked here and are dropped —
				// degradation, not corruption.
				continue
			}
			d := h.Dist
			if d < 0 {
				d = math.Inf(1)
			}
			if cur, ok := best[p]; !ok || d < cur {
				best[p] = d
			}
		}
	}
	if failed == len(e.Probers) {
		// Every shard lost: degrade to the exact full rank rather
		// than failing the query.
		if e.Stats != nil {
			e.Stats.AllFailedRounds.Add(1)
		}
		return e.full(db, labels)
	}
	order := make([]int, 0, len(best))
	for p := range best {
		order = append(order, p)
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := best[order[a]], best[order[b]]
		if da != db {
			return da < db
		}
		return order[a] < order[b]
	})
	if e.C < len(order) {
		order = order[:e.C]
	}
	merge := time.Since(start)

	if e.Stats != nil {
		e.Stats.ScatterRounds.Add(1)
		if failed > 0 {
			e.Stats.PartialRounds.Add(1)
		}
		e.Stats.Probes.Add(int64(pstats.Probes))
		e.Stats.DistEvals.Add(int64(pstats.DistEvals))
		e.Stats.MergedCandidates.Add(int64(len(order)))
		e.Stats.ScatterNs.Add(int64(scatter))
		e.Stats.MergeNs.Add(int64(merge))
	}
	out, _, err := retrieval.RerankUnionOrder(e.Inner, db, labels, order, e.Order)
	return out, err
}

// perShardC is the candidate budget requested from each shard. When
// C covers the database (or there is a single shard) the full budget
// goes out — every shard then returns its complete partition, the
// C=N exactness path. Below that, a shard only needs its share of
// the global top C plus enough slack to absorb hash imbalance: with
// bags spread uniformly by the ring, a shard's share of the true top
// C concentrates around C/S with deviation O(√C), so C/S plus
// max(C/16, 64) covers it overwhelmingly (at C = 1500, S = 2 the
// slack is ~5 standard deviations of the binomial share) — and the
// recall gates (the
// shard property tests and the ci.sh index smoke) hold the claim to
// measurement rather than trust. The budget's other role is setting
// the scout's probe depth (k = cs+16 per probe), and through it the
// carried bound's quantile: shard 0's cs-th distance over an n/S-bag
// partition estimates the same quantile as the global C-th over n,
// which is exactly what makes it a sound pruning radius for the
// carried wave.
func (e *Engine) perShardC(n int) int {
	c := e.C
	if c >= n || len(e.Probers) <= 1 {
		return c
	}
	slack := c / 16
	if slack < 64 {
		slack = 64
	}
	cs := c/len(e.Probers) + slack
	if cs > c {
		cs = c
	}
	return cs
}

// probeShard runs one shard's probe behind its deadline and the
// chaos hook, classifying any loss into the timeout/error counters.
// bounds, when non-nil, are the scout's carried pruning radii; they
// reach the shard only through the BoundedProber fast path.
func (e *Engine) probeShard(ctx context.Context, shard int, seq uint64, probes [][]float64, c int, bounds []float64) shardAnswer {
	sctx := ctx
	cancel := func() {}
	if e.Timeout > 0 {
		sctx, cancel = context.WithTimeout(ctx, e.Timeout)
	}
	defer cancel()
	if e.Fault != nil {
		stall, ferr := e.Fault(shard, seq)
		if stall > 0 {
			if e.Stats != nil {
				e.Stats.InjectedStalls.Add(1)
			}
			t := time.NewTimer(stall)
			select {
			case <-t.C:
			case <-sctx.Done():
				t.Stop()
				return shardAnswer{err: e.lost(sctx.Err())}
			}
			t.Stop()
		}
		if ferr != nil {
			if e.Stats != nil {
				e.Stats.InjectedFailures.Add(1)
			}
			return shardAnswer{err: e.lost(ferr)}
		}
	}
	if bp, ok := e.Probers[shard].(BoundedProber); ok {
		if bounds != nil && e.Stats != nil {
			e.Stats.BoundedShardProbes.Add(1)
		}
		hits, kth, stats, err := bp.ProbeBounded(sctx, probes, c, bounds)
		if err != nil {
			return shardAnswer{err: e.lost(err)}
		}
		return shardAnswer{hits: hits, kth: kth, stats: stats}
	}
	hits, stats, err := e.Probers[shard].Probe(sctx, probes, c)
	if err != nil {
		return shardAnswer{err: e.lost(err)}
	}
	return shardAnswer{hits: hits, stats: stats}
}

// lost counts a lost shard probe and passes the error through.
func (e *Engine) lost(err error) error {
	if e.Stats != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			e.Stats.ShardTimeouts.Add(1)
		} else {
			e.Stats.ShardErrors.Add(1)
		}
	}
	return err
}

// full delegates to the wrapped engine, counting the round.
func (e *Engine) full(db []window.VS, labels map[int]mil.Label) ([]int, error) {
	if e.Stats != nil {
		e.Stats.FullRounds.Add(1)
	}
	return e.Inner.Rank(db, labels)
}
