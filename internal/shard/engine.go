package shard

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"milvideo/internal/index"
	"milvideo/internal/mil"
	"milvideo/internal/retrieval"
	"milvideo/internal/window"
)

// Prober answers a scatter probe for one shard: the shard's top-c
// candidate bags as (database position, distance) hits, in any order
// (the gather sorts them). The distance is the minimum Euclidean
// distance from any probe to any of the bag's instances (to their
// reconstructions on a quantized index). When c covers the shard's
// whole slice of the database, every bag no probe reached is
// appended as a completion hit with distance +Inf, which is what lets
// a C ≥ N scatter reassemble the entire database and reproduce the
// exact ranking. Positions index the database the round ranks, so the
// gather never maps VS indices. Probers must be safe for concurrent
// use. LocalProber serves in-process slices; the server's HTTP prober
// forwards to a shard worker's /v1/scatter endpoint and translates
// the VS indices the wire carries.
type Prober interface {
	Probe(ctx context.Context, probes [][]float64, c int) ([]index.BagHit, index.ProbeStats, error)
}

// BoundedProber is the optional fast path of the scout-and-carry
// scatter. ProbeBounded is Probe plus per-probe pruning radii in
// (bounds; nil = unbounded) and per-probe achieved k-th-neighbor
// distances out — the bounds a scout shard exports and the carried
// shards prune by. A prober that cannot honor bounds (the HTTP
// prober) simply doesn't implement this; the engine falls back to
// Probe and the scatter stays a plain fan-out.
type BoundedProber interface {
	ProbeBounded(ctx context.Context, probes [][]float64, c int, bounds []float64) ([]index.BagHit, []float64, index.ProbeStats, error)
}

// LocalProber probes an in-process slice of the database: VSs, in
// database order, and a BagIndex built over exactly them. Pos maps
// the slice's positions to database positions (a partition's
// Part.Pos); nil means VSs is the whole database, whose positions map
// to themselves.
type LocalProber struct {
	VSs   []window.VS
	Pos   []int
	Index *index.BagIndex
}

// Probe implements Prober.
func (p LocalProber) Probe(ctx context.Context, probes [][]float64, c int) ([]index.BagHit, index.ProbeStats, error) {
	hits, _, stats, err := p.ProbeBounded(ctx, probes, c, nil)
	return hits, stats, err
}

// ProbeBounded implements BoundedProber. The completion rule is what
// keeps carried pruning off the exactness path: when c covers the
// slice, every bag the bounded probe skipped still goes out as a
// completion hit, so a C ≥ N scatter reassembles the whole database
// no matter how tight the bounds were. An index that covers other
// bags than VSs fails with index.ErrStale.
func (p LocalProber) ProbeBounded(ctx context.Context, probes [][]float64, c int, bounds []float64) ([]index.BagHit, []float64, index.ProbeStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, index.ProbeStats{}, err
	}
	if len(p.VSs) == 0 || c <= 0 {
		return nil, nil, index.ProbeStats{}, nil
	}
	if p.Index == nil {
		return nil, nil, index.ProbeStats{}, fmt.Errorf("shard: nil index for a %d-bag slice", len(p.VSs))
	}
	// The probe checks the index against VSs under its own lock, so a
	// live commit cannot re-map positions between check and probe.
	hits, kth, stats, err := p.Index.CandidatesOver(p.VSs, probes, c, bounds)
	if err != nil {
		return nil, nil, index.ProbeStats{}, fmt.Errorf("shard: %w", err)
	}
	if c >= len(p.VSs) && len(hits) < len(p.VSs) {
		probed := make([]bool, len(p.VSs))
		for _, h := range hits {
			probed[h.Pos] = true
		}
		for pos := range p.VSs {
			if !probed[pos] {
				hits = append(hits, index.BagHit{Pos: pos, Dist: math.Inf(1)})
			}
		}
	}
	if p.Pos != nil {
		for i := range hits {
			hits[i].Pos = p.Pos[hits[i].Pos]
		}
	}
	return hits, kth, stats, nil
}

// PositiveProbes gathers the flattened instance vectors of every
// positively labeled bag — the probe set the accumulated relevant
// feedback defines. It is exactly what the MIL learner trains on, so
// bags near it are the ones whose exact scores can matter.
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

// Stats accumulates an engine's work across rounds (atomically; one
// instance can be shared by every session of a server and read while
// rounds run).
type Stats struct {
	// PrunedRounds counts rounds ranked through a scattered candidate
	// set, C ≥ N rounds included; FullRounds counts delegations to the
	// inner engine (no probes yet, no shards, C disabled, or every
	// shard lost). SeededRounds are the subset of pruned rounds whose
	// probes came from a ProbeSeeder (no positive feedback yet) rather
	// than labels.
	PrunedRounds atomic.Int64
	FullRounds   atomic.Int64
	SeededRounds atomic.Int64
	// PartialRounds counts pruned rounds in which at least one shard
	// failed or timed out and the merge continued over the survivors;
	// AllFailedRounds counts rounds every shard was lost and the
	// engine fell back to an exact full rank.
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
	// CandidatesRanked totals the bags the inner engine re-ranked
	// (the merged candidate set plus every labeled bag).
	Probes           atomic.Int64
	DistEvals        atomic.Int64
	CandidatesRanked atomic.Int64
	// ScatterNs and MergeNs split a round's pre-re-rank wall time:
	// the parallel probe fan-out vs the distance merge.
	ScatterNs atomic.Int64
	MergeNs   atomic.Int64
}

// Engine is the pruned-ranking engine every indexed session runs. It
// fans a query's positive-instance probes across shards, merges the
// per-shard candidate sets by distance into a global top-C, and
// re-ranks the union (plus every labeled bag) with the unchanged
// exact engine; the pruned remainder keeps the §5.3 heuristic order.
// An unsharded server is one shard: a single LocalProber over the
// clip's own VSs and index. C ≥ len(db) provably reproduces the exact
// ranking at every shard count: the full budget goes to every shard,
// each shard then returns its complete slice (real distances for
// probed bags, completion hits for the rest), the merged union is
// the whole database, and the inner engine ranks all of it. Below
// that, each shard is asked only for its expected share of the
// global top C plus slack (see perShardC), and the scatter runs
// scout-and-carry: shard 0 probes first and its per-probe k-th
// distances become initial pruning radii for every other shard,
// which is where the speedup lives — the carried wave's searches are
// neighborhood-ball-sized instead of catalog-sized. A shard that
// times out or fails is dropped from the round: partial results with
// counters, never a failed query (a lost scout costs only the
// pruning). Only when every shard is lost does the engine fall back
// to an exact full rank. Two failures are the round's own, not a
// shard's, and fail it: an index of another catalog generation
// (retrieval.ErrStaleIndex, which live rounds retry) and the end of
// the round's context.
type Engine struct {
	// Inner is the exact ranker re-ranking the merged union. When it
	// implements retrieval.ProbeSeeder, it supplies the probes of
	// rounds with no positive feedback (e.g. a predicate query's
	// best-scoring instances), so the scatter path covers round 0
	// too. C ≥ len(db) identity is unaffected: a seeded full-budget
	// scatter still reassembles every shard through completion hits.
	Inner retrieval.Engine
	// Probers answer per-shard probes; Probers[i] is shard i.
	Probers []Prober
	// C caps the merged global candidate set handed to Inner; <= 0
	// disables the scatter path.
	C int
	// Timeout bounds each shard's probe (0 = only the round context).
	Timeout time.Duration
	// Stats, when non-nil, accumulates the round counters.
	Stats *Stats
	// Order, when non-nil, returns the stored HeuristicOrder of the
	// database Rank receives. Pruned rounds filter it for their
	// remainder (see retrieval.RerankUnionOrder), and full rounds hand
	// it to an Inner that implements retrieval.OrderRanker, whose
	// no-feedback fallback (round 0 without probes) then copies it
	// instead of re-sorting the catalog. Only rounds that leave a
	// remainder or fall back call it, so its owner may compute the
	// order on first call; an order of the wrong length fails the
	// round with retrieval.ErrStaleIndex. Nil computes the order in
	// every such round.
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
	hits  []index.BagHit
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
	seeded := false
	if len(probes) == 0 {
		// No feedback yet: let the query engine seed probes, if it can.
		if seeder, ok := e.Inner.(retrieval.ProbeSeeder); ok {
			probes = seeder.SeedProbes(db)
			seeded = len(probes) > 0
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
	// neighborhood ball. The carried shards then all probe at once,
	// each behind its own deadline. A lost scout only costs the
	// optimization: the carried wave runs unbounded.
	answers := make([]shardAnswer, len(e.Probers))
	start := time.Now()
	answers[0] = e.probeShard(ctx, 0, seq, probes, cs, nil)
	var bounds []float64
	if answers[0].err == nil {
		bounds = answers[0].kth
	}
	var wg sync.WaitGroup
	for i := 1; i < len(e.Probers); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			answers[i] = e.probeShard(ctx, i, seq, probes, cs, bounds)
		}(i)
	}
	wg.Wait()
	scatter := time.Since(start)
	if err := ctx.Err(); err != nil {
		// The round itself ended: a full rank would outlive it.
		return nil, fmt.Errorf("shard: scatter: %w", err)
	}

	// Gather. The round is live, so a failed answer is a lost shard
	// (a deadline here is the shard's own Timeout), except a stale
	// index, which fails the round uncounted. Then order every
	// surviving hit by (distance, database position) and keep the
	// first C distinct positions, so each bag counts at its best
	// distance over shards. Deterministic whatever the goroutine
	// schedule.
	start = time.Now()
	if i := slices.IndexFunc(answers, func(a shardAnswer) bool { return errors.Is(a.err, index.ErrStale) }); i >= 0 {
		return nil, fmt.Errorf("%w: %w", retrieval.ErrStaleIndex, answers[i].err)
	}
	var hits []index.BagHit
	failed := 0
	var pstats index.ProbeStats
	for _, a := range answers {
		if a.err != nil {
			failed++
			if e.Stats != nil {
				if errors.Is(a.err, context.DeadlineExceeded) {
					e.Stats.ShardTimeouts.Add(1)
				} else {
					e.Stats.ShardErrors.Add(1)
				}
			}
			continue
		}
		pstats.Probes += a.stats.Probes
		pstats.DistEvals += a.stats.DistEvals
		hits = append(hits, a.hits...)
	}
	if failed == len(e.Probers) {
		// Every shard lost: degrade to the exact full rank rather
		// than failing the query.
		if e.Stats != nil {
			e.Stats.AllFailedRounds.Add(1)
		}
		return e.full(db, labels)
	}
	slices.SortFunc(hits, func(a, b index.BagHit) int {
		if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
			return c
		}
		return cmp.Compare(a.Pos, b.Pos)
	})
	taken := make([]bool, len(db))
	cands := make([]int, 0, min(e.C, len(hits)))
	for _, h := range hits {
		if len(cands) == e.C {
			break
		}
		// A position outside db (a prober over another database) is
		// dropped — degradation, not corruption.
		if h.Pos < 0 || h.Pos >= len(db) || taken[h.Pos] {
			continue
		}
		taken[h.Pos] = true
		cands = append(cands, h.Pos)
	}
	merge := time.Since(start)

	if e.Stats != nil {
		e.Stats.PrunedRounds.Add(1)
		if seeded {
			e.Stats.SeededRounds.Add(1)
		}
		if failed > 0 {
			e.Stats.PartialRounds.Add(1)
		}
		e.Stats.Probes.Add(int64(pstats.Probes))
		e.Stats.DistEvals.Add(int64(pstats.DistEvals))
		e.Stats.ScatterNs.Add(int64(scatter))
		e.Stats.MergeNs.Add(int64(merge))
	}
	out, ranked, err := retrieval.RerankUnionOrder(e.Inner, db, labels, cands, e.Order)
	if err != nil {
		return nil, err
	}
	if e.Stats != nil {
		e.Stats.CandidatesRanked.Add(int64(ranked))
	}
	return out, nil
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
// chaos hook. A failed answer carries its error uncounted: only the
// gather, once it knows the round itself is still live, can tell a
// lost shard from the end of the round. bounds, when non-nil, are
// the scout's carried pruning radii; they reach the shard only
// through the BoundedProber fast path.
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
				return shardAnswer{err: sctx.Err()}
			}
			t.Stop()
		}
		if ferr != nil {
			if e.Stats != nil {
				e.Stats.InjectedFailures.Add(1)
			}
			return shardAnswer{err: ferr}
		}
	}
	if bp, ok := e.Probers[shard].(BoundedProber); ok {
		if bounds != nil && e.Stats != nil {
			e.Stats.BoundedShardProbes.Add(1)
		}
		hits, kth, stats, err := bp.ProbeBounded(sctx, probes, c, bounds)
		if err != nil {
			return shardAnswer{err: err}
		}
		return shardAnswer{hits: hits, kth: kth, stats: stats}
	}
	hits, stats, err := e.Probers[shard].Probe(sctx, probes, c)
	if err != nil {
		return shardAnswer{err: err}
	}
	return shardAnswer{hits: hits, stats: stats}
}

// full delegates to the wrapped engine, counting the round. An inner
// retrieval.OrderRanker gets the stored order for its fallback.
func (e *Engine) full(db []window.VS, labels map[int]mil.Label) ([]int, error) {
	if e.Stats != nil {
		e.Stats.FullRounds.Add(1)
	}
	if or, ok := e.Inner.(retrieval.OrderRanker); ok {
		return or.RankOrder(db, labels, e.Order)
	}
	return e.Inner.Rank(db, labels)
}
