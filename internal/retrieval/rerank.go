package retrieval

import (
	"fmt"

	"milvideo/internal/mil"
	"milvideo/internal/window"
)

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
// tail of the pruned-ranking engine (shard.Engine), which reduces its
// probe phase to "which positions get the exact treatment" and defers
// here. stored, when non-nil, returns HeuristicOrder(db), and the
// remainder is that order with the re-ranked union skipped. The
// catalog-wide order restricted to the remainder is exactly the
// remainder's own heuristic ranking, so the result equals
// RerankUnion's. stored is called only when a remainder exists,
// before inner runs; an order of another length was computed over
// another database and fails the round with ErrStaleIndex. A nil
// stored computes the order here.
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
