package retrieval

import (
	"fmt"
	"sync/atomic"

	"milvideo/internal/index"
	"milvideo/internal/mil"
	"milvideo/internal/window"
)

// CandidateStats accumulates a CandidateEngine's work across rounds
// (atomically, so one instance can be shared by every session of a
// server and read while rounds run).
type CandidateStats struct {
	// PrunedRounds counts rounds ranked through the candidate set;
	// FullRounds counts rounds that fell back to the wrapped engine
	// (no positive probes yet, or C covers the database).
	PrunedRounds atomic.Int64
	FullRounds   atomic.Int64
	// Probes and DistEvals total the index work of pruned rounds.
	Probes    atomic.Int64
	DistEvals atomic.Int64
	// CandidatesRanked totals the bags the wrapped engine re-ranked
	// in pruned rounds (candidate set plus labeled bags).
	CandidatesRanked atomic.Int64
	// SeededRounds counts pruned rounds whose probes came from a
	// ProbeSeeder (no positive feedback yet) rather than labels.
	SeededRounds atomic.Int64
}

// CandidateEngine makes any Engine sublinear in the database size: a
// metric candidate index prunes the database to the C bags nearest
// the accumulated positive feedback, the wrapped engine re-ranks
// exactly that set (plus every labeled bag, which is always
// included), and the pruned remainder keeps the cheap §5.3 heuristic
// ordering. With C ≥ len(db) — or before any positive feedback
// exists, when there are no probes to prune by — it delegates to the
// wrapped engine unchanged, so C=N reproduces the unwrapped ranking
// exactly.
type CandidateEngine struct {
	// Inner is the exact ranker (MIL-OCSVM, Weighted-RF, Rocchio, …).
	Inner Engine
	// Index must cover the database Rank receives (same bags, same
	// order); pruned rounds check it and fail with ErrStaleIndex.
	Index *index.BagIndex
	// C caps the candidate set handed to Inner. C <= 0 or C >= len(db)
	// disables pruning.
	C int
	// Seeder, when non-nil, supplies index probes for rounds with no
	// positive feedback (a predicate query's best-scoring instances),
	// so even round 0 can be pruned. Left nil, Inner itself is
	// consulted when it implements ProbeSeeder. Seeding only ever
	// applies below C < len(db) — the C=N identity is unaffected.
	Seeder ProbeSeeder
	// Stats, when non-nil, accumulates probe counters.
	Stats *CandidateStats
	// Order, when non-nil, returns the stored HeuristicOrder of the
	// database Rank receives, which pruned rounds filter for their
	// remainder (see RerankUnionOrder). Only pruned rounds call it, so
	// its owner may compute the order on first call; an order of the
	// wrong length fails the round with ErrStaleIndex. Nil computes
	// the order in every pruned round.
	Order func() []int
}

// Name implements Engine.
func (e CandidateEngine) Name() string {
	inner := "?"
	if e.Inner != nil {
		inner = e.Inner.Name()
	}
	kind := index.Kind("none")
	if e.Index != nil {
		kind = e.Index.Kind()
	}
	return fmt.Sprintf("candidate(%s,C=%d)/%s", kind, e.C, inner)
}

// Rank implements Engine.
func (e CandidateEngine) Rank(db []window.VS, labels map[int]mil.Label) ([]int, error) {
	if e.Inner == nil {
		return nil, ErrNilEngine
	}
	if e.Index == nil || e.C <= 0 || e.C >= len(db) {
		return e.full(db, labels)
	}
	// Positive-labeled instances are the probes: the accumulated
	// relevant feedback is exactly what the MIL learner trains on, so
	// bags near it are the ones whose exact scores can matter.
	var probes [][]float64
	for _, vs := range db {
		if labels[vs.Index] != mil.Positive {
			continue
		}
		for _, ts := range vs.TSs {
			probes = append(probes, ts.Flat())
		}
	}
	seeded := false
	if len(probes) == 0 {
		// No feedback yet: let the engine seed probes from the query
		// itself, if it can.
		seeder := e.Seeder
		if seeder == nil {
			seeder, _ = e.Inner.(ProbeSeeder)
		}
		if seeder != nil {
			probes = seeder.SeedProbes(db)
			seeded = len(probes) > 0
		}
	}
	if len(probes) == 0 {
		return e.full(db, labels)
	}

	// The probe checks the index against db under its own lock, so a
	// live commit cannot re-map positions between check and probe.
	hits, _, stats, err := e.Index.CandidatesOver(db, probes, e.C, nil)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrStaleIndex, err)
	}
	cands := make([]int, len(hits))
	for i, h := range hits {
		cands[i] = h.Pos
	}
	if e.Stats != nil {
		if seeded {
			e.Stats.SeededRounds.Add(1)
		}
		e.Stats.PrunedRounds.Add(1)
		e.Stats.Probes.Add(int64(stats.Probes))
		e.Stats.DistEvals.Add(int64(stats.DistEvals))
	}
	out, ranked, err := RerankUnionOrder(e.Inner, db, labels, cands, e.Order)
	if err != nil {
		return nil, err
	}
	if e.Stats != nil {
		e.Stats.CandidatesRanked.Add(int64(ranked))
	}
	return out, nil
}

// RerankUnion produces a full ranking of db from a candidate set: the
// candidate positions plus every labeled bag are re-ranked exactly by
// inner, and the pruned remainder keeps the cheap §5.3 heuristic
// ordering, computed here. Out-of-range and duplicate candidate
// positions are ignored. Returns the ranking and the size of the
// exactly re-ranked union.
func RerankUnion(inner Engine, db []window.VS, labels map[int]mil.Label, candPos []int) ([]int, int, error) {
	return RerankUnionOrder(inner, db, labels, candPos, nil)
}

// RerankUnionOrder is RerankUnion over a stored heuristic order, the
// shared tail of CandidateEngine and the sharded scatter–gather engine
// — both reduce their probe phase to "which positions get the exact
// treatment" and defer here. stored, when non-nil, returns
// HeuristicOrder(db), and the remainder is that order with the
// re-ranked union skipped. The catalog-wide
// order restricted to the remainder is exactly the remainder's own
// heuristic ranking, so the result equals RerankUnion's. stored is
// called only when a remainder exists, before inner runs; an order of
// another length was computed over another database and fails the
// round with ErrStaleIndex. A nil stored computes the order here.
func RerankUnionOrder(inner Engine, db []window.VS, labels map[int]mil.Label, candPos []int, stored func() []int) ([]int, int, error) {
	if inner == nil {
		return nil, 0, ErrNilEngine
	}
	in := make([]bool, len(db))
	for _, pos := range candPos {
		if pos >= 0 && pos < len(db) {
			in[pos] = true
		}
	}
	// Labeled bags always survive pruning: the engine must see its own
	// training set, and the user's judged results must stay exactly
	// ranked.
	for pos, vs := range db {
		if _, ok := labels[vs.Index]; ok {
			in[pos] = true
		}
	}
	sub := make([]window.VS, 0, len(candPos)+4)
	subPos := make([]int, 0, len(candPos)+4)
	for pos := range db {
		if in[pos] {
			sub = append(sub, db[pos])
			subPos = append(subPos, pos)
		}
	}
	// The pruned remainder keeps the §5.3 heuristic ordering — the
	// same ordering every engine falls back to before feedback exists.
	var order []int
	switch {
	case len(sub) == len(db):
		// Nothing was pruned: no remainder to order.
	case stored == nil:
		order = HeuristicOrder(db)
	default:
		if order = stored(); len(order) != len(db) {
			return nil, 0, fmt.Errorf("%w: stored heuristic order covers %d bags, database has %d",
				ErrStaleIndex, len(order), len(db))
		}
	}
	subRank, err := inner.Rank(sub, labels)
	if err != nil {
		return nil, 0, err
	}
	if len(subRank) != len(sub) {
		return nil, 0, fmt.Errorf("%w: %s returned %d of %d candidate indices",
			ErrBadRanking, inner.Name(), len(subRank), len(sub))
	}
	out := make([]int, 0, len(db))
	for _, r := range subRank {
		if r < 0 || r >= len(subPos) {
			return nil, 0, fmt.Errorf("%w: %s returned out-of-range candidate index %d",
				ErrBadRanking, inner.Name(), r)
		}
		out = append(out, subPos[r])
	}
	for _, pos := range order {
		if !in[pos] {
			out = append(out, pos)
		}
	}
	return out, len(sub), nil
}

// full delegates to the wrapped engine, counting the round.
func (e CandidateEngine) full(db []window.VS, labels map[int]mil.Label) ([]int, error) {
	if e.Stats != nil {
		e.Stats.FullRounds.Add(1)
	}
	return e.Inner.Rank(db, labels)
}
