package dd

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"milvideo/internal/mil"
	"milvideo/internal/retrieval"
	"milvideo/internal/window"
)

// Engine adapts EM-DD to the retrieval framework: bags come from the
// VS database, the concept is retrained on the accumulated labels
// each round, and VSs rank by their noisy-or bag probability. With no
// positive labels it falls back to the §5.3 heuristic, so its initial
// round matches the other engines.
type Engine struct {
	// Opt forwards to the EM-DD trainer.
	Opt Options
}

// Name implements retrieval.Engine.
func (Engine) Name() string { return "EM-DD" }

// Rank implements retrieval.Engine.
func (e Engine) Rank(db []window.VS, labels map[int]mil.Label) ([]int, error) {
	return e.RankOrder(db, labels, nil)
}

// RankOrder implements retrieval.OrderRanker.
func (e Engine) RankOrder(db []window.VS, labels map[int]mil.Label, stored func() []int) ([]int, error) {
	// Train needs a positive VS that holds a TS; without one, rank
	// heuristically before building any bag.
	if !retrieval.HasBag(db, labels, mil.Positive) {
		return retrieval.FallbackOrder(db, stored)
	}
	bags := make([]mil.Bag, len(db))
	for i, vs := range db {
		b := mil.Bag{ID: vs.Index, Label: labels[vs.Index]}
		for _, ts := range vs.TSs {
			b.Instances = append(b.Instances, ts.Flat())
		}
		bags[i] = b
	}
	concept, err := Train(bags, e.Opt)
	if errors.Is(err, ErrNoPositiveBags) {
		return retrieval.FallbackOrder(db, stored)
	}
	if err != nil {
		return nil, fmt.Errorf("dd: %w", err)
	}
	scores := make([]float64, len(db))
	for i := range db {
		if len(bags[i].Instances) == 0 {
			scores[i] = math.Inf(-1)
			continue
		}
		p, err := concept.BagProb(bags[i].Instances)
		if err != nil {
			return nil, fmt.Errorf("dd: bag %d: %w", bags[i].ID, err)
		}
		scores[i] = p
	}
	idx := make([]int, len(db))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	return idx, nil
}
