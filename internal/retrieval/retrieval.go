// Package retrieval implements the paper's §5.3 interactive event
// learning and retrieval process: an initial heuristic query, rounds
// of top-K feedback from a (simulated) user, and pluggable ranking
// engines — the proposed MIL + One-class SVM framework and the
// weighted-RF and Rocchio baselines it is compared against.
package retrieval

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"milvideo/internal/mil"
	"milvideo/internal/rf"
	"milvideo/internal/sim"
	"milvideo/internal/window"
)

// Typed errors for the degenerate inputs a network entry point can
// deliver. Callers match with errors.Is; wrapped variants carry the
// offending values.
var (
	// ErrNilEngine is returned when no ranking engine was supplied.
	ErrNilEngine = errors.New("retrieval: nil engine")
	// ErrNilOracle is returned when a session has no feedback source.
	ErrNilOracle = errors.New("retrieval: nil oracle")
	// ErrEmptyDB is returned when the VS database has no entries.
	ErrEmptyDB = errors.New("retrieval: empty database")
	// ErrBadTopK is returned for non-positive result counts.
	ErrBadTopK = errors.New("retrieval: TopK must be positive")
	// ErrBadRounds is returned for non-positive round counts.
	ErrBadRounds = errors.New("retrieval: rounds must be positive")
	// ErrStaleIndex is returned when a candidate index covers a
	// different database than the one being ranked. Against a
	// live-ingested catalog this is a transient race (the index is
	// maintained moments after the catalog commits); callers that
	// track a live feed re-resolve and retry.
	ErrStaleIndex = errors.New("retrieval: candidate index out of step with database")
	// ErrDuplicateIndex is returned when two database VSs share an
	// index (labels and rankings would silently alias).
	ErrDuplicateIndex = errors.New("retrieval: duplicate VS index")
	// ErrBadRanking is returned when an engine produces a ranking
	// that is not a permutation of the database indices.
	ErrBadRanking = errors.New("retrieval: engine returned malformed ranking")
)

// ValidateDB checks the invariants every ranking entry point relies
// on: a non-empty database with unique VS indices. It is the shared
// gate for offline sessions and the query service, run once per
// round. Catalog indices are small and dense, so the check marks them
// in a bitmap over [0, 2N) and only falls back to a map when an index
// lies outside it.
func ValidateDB(db []window.VS) error {
	if len(db) == 0 {
		return ErrEmptyDB
	}
	n := 2 * len(db)
	seen := make([]uint64, (n+63)/64)
	for _, vs := range db {
		i := vs.Index
		if i < 0 || i >= n {
			return validateDBMap(db)
		}
		if seen[i/64]&(1<<(i%64)) != 0 {
			return fmt.Errorf("%w: %d", ErrDuplicateIndex, i)
		}
		seen[i/64] |= 1 << (i % 64)
	}
	return nil
}

// validateDBMap is ValidateDB for indices the bitmap cannot hold.
func validateDBMap(db []window.VS) error {
	seen := make(map[int]bool, len(db))
	for _, vs := range db {
		if seen[vs.Index] {
			return fmt.Errorf("%w: %d", ErrDuplicateIndex, vs.Index)
		}
		seen[vs.Index] = true
	}
	return nil
}

// ContextEngine is an Engine whose ranking can honor cancellation
// and deadlines. Engines that fan work out — the sharded
// scatter–gather engine derives per-shard deadlines from the round's
// context — implement it; RankRoundCtx dispatches to RankCtx when the
// engine provides it. RankCtx with identical (db, labels) must return
// the same ranking Rank would (the context only bounds time, never
// changes results on the happy path).
type ContextEngine interface {
	Engine
	RankCtx(ctx context.Context, db []window.VS, labels map[int]mil.Label) ([]int, error)
}

// RankRound executes one retrieval round: the engine orders the
// database under the labels accumulated so far, and the first
// min(topK, len(db)) indices are the round's returned results. It is
// the single ranking entry point shared by the offline Session, the
// milquery tool and the HTTP query service — identical inputs yield
// identical rankings everywhere.
func RankRound(engine Engine, db []window.VS, labels map[int]mil.Label, topK int) (ranking, top []int, err error) {
	return RankRoundCtx(context.Background(), engine, db, labels, topK)
}

// RankRoundCtx is RankRound bounded by a context: engines that
// implement ContextEngine rank under ctx, everything else ranks as
// before (the context is then only observed between rounds by the
// caller).
func RankRoundCtx(ctx context.Context, engine Engine, db []window.VS, labels map[int]mil.Label, topK int) (ranking, top []int, err error) {
	if engine == nil {
		return nil, nil, ErrNilEngine
	}
	if topK <= 0 {
		return nil, nil, fmt.Errorf("%w, got %d", ErrBadTopK, topK)
	}
	if err := ValidateDB(db); err != nil {
		return nil, nil, err
	}
	if ce, ok := engine.(ContextEngine); ok {
		ranking, err = ce.RankCtx(ctx, db, labels)
	} else {
		ranking, err = engine.Rank(db, labels)
	}
	if err != nil {
		return nil, nil, err
	}
	if len(ranking) != len(db) {
		return nil, nil, fmt.Errorf("%w: %s returned %d of %d indices",
			ErrBadRanking, engine.Name(), len(ranking), len(db))
	}
	k := topK
	if k > len(ranking) {
		k = len(ranking)
	}
	return ranking, append([]int(nil), ranking[:k]...), nil
}

// Oracle supplies relevance judgments — the role of the human user in
// the paper's Fig. 7 interface.
type Oracle interface {
	// Relevant reports whether the VS matches the query target.
	Relevant(vs window.VS) bool
}

// SceneOracle answers from simulator ground truth: a VS is relevant
// iff an incident whose type satisfies Pred overlaps the VS's frame
// interval by at least MinOverlap frames. A nil Pred selects
// accident-type incidents (the paper's main query). MinOverlap models
// what a human labeler can actually see: a window containing only the
// last frame or two of an event does not show the event; one sampling
// interval (5 frames at the paper's rate) is a sensible threshold.
// MinOverlap < 1 is treated as 1 (any overlap).
type SceneOracle struct {
	Scene      *sim.Scene
	Pred       func(sim.IncidentType) bool
	MinOverlap int
}

// Relevant implements Oracle.
func (o SceneOracle) Relevant(vs window.VS) bool {
	pred := o.Pred
	if pred == nil {
		pred = func(t sim.IncidentType) bool { return t.IsAccident() }
	}
	need := o.MinOverlap
	if need < 1 {
		need = 1
	}
	for _, inc := range o.Scene.Incidents {
		if !pred(inc.Type) {
			continue
		}
		lo, hi := inc.Start, inc.End
		if vs.StartFrame > lo {
			lo = vs.StartFrame
		}
		if vs.EndFrame < hi {
			hi = vs.EndFrame
		}
		if hi-lo+1 >= need {
			return true
		}
	}
	return false
}

// FuncOracle adapts a plain function to the Oracle interface.
type FuncOracle func(vs window.VS) bool

// Relevant implements Oracle.
func (f FuncOracle) Relevant(vs window.VS) bool { return f(vs) }

// Engine ranks the video-sequence database given the feedback
// accumulated so far. Engines must be deterministic functions of
// (db, labels).
type Engine interface {
	// Name identifies the engine in reports.
	Name() string
	// Rank returns the indices into db ordered most→least relevant.
	Rank(db []window.VS, labels map[int]mil.Label) ([]int, error)
}

// ProbeSeeder is implemented by engines that can nominate index
// probes before any positive feedback exists — e.g. a compiled
// predicate query seeds the instance vectors of its highest-scoring
// bags. Candidate pruning normally waits for the first positive
// label (the probes are the positives' instances); a seeder lets the
// index prune from round 0. SeedProbes returns instance-space vectors
// (the ts.Flat() representation the index is built over), or nil when
// the engine has nothing better than the full ranking.
type ProbeSeeder interface {
	SeedProbes(db []window.VS) [][]float64
}

// OrderRanker is implemented by engines whose ranking without usable
// positive feedback is HeuristicOrder(db). RankOrder ranks exactly
// like Rank, but takes that fallback from stored when stored is
// non-nil: a stored HeuristicOrder of db, which the pruned-ranking
// engine keeps once per catalog (shard.Engine.Order), so round 0
// copies the order instead of re-scoring and re-sorting every bag.
// stored is called only when the engine falls back, and an order of
// the wrong length fails the round with ErrStaleIndex (see
// FallbackOrder). Rank is RankOrder with a nil stored.
type OrderRanker interface {
	RankOrder(db []window.VS, labels map[int]mil.Label, stored func() []int) ([]int, error)
}

// HeuristicScore computes the §5.3 initial-query score of a VS: the
// squared sum of the feature vector at each sampling point, maximized
// over points and over the contained TSs. Empty VSs score −Inf.
func HeuristicScore(vs window.VS) float64 {
	best := math.Inf(-1)
	for _, ts := range vs.TSs {
		for _, f := range ts.Vectors {
			s := 0.0
			for _, v := range f {
				s += v * v
			}
			if s > best {
				best = s
			}
		}
	}
	return best
}

// rankByScore orders db indices by descending score, ties by
// ascending index. NaN scores rank last, after −Inf, in index order;
// set apart first, they leave the sort plain comparisons.
func rankByScore(scores []float64) []int {
	idx := make([]int, 0, len(scores))
	var nans []int
	for i, s := range scores {
		if math.IsNaN(s) {
			nans = append(nans, i)
		} else {
			idx = append(idx, i)
		}
	}
	slices.SortFunc(idx, func(a, b int) int {
		switch sa, sb := scores[a], scores[b]; {
		case sa > sb:
			return -1
		case sa < sb:
			return 1
		}
		return cmp.Compare(a, b)
	})
	return append(idx, nans...)
}

// HeuristicOrder is the §5.3 initial-query ranking of db: positions
// by HeuristicScore descending (never NaN: a NaN point score never
// beats the running max), ties by ascending position. It depends only
// on the catalog, so servers store it for OrderRanker fallbacks and
// RerankUnionOrder.
func HeuristicOrder(db []window.VS) []int {
	scores := make([]float64, len(db))
	for i, vs := range db {
		scores[i] = HeuristicScore(vs)
	}
	return rankByScore(scores)
}

// storedOrder returns HeuristicOrder(db): stored's order when stored
// is non-nil, else computed. An order of another length was computed
// over another database and fails with ErrStaleIndex. A stored order
// is returned as is, so callers only read it.
func storedOrder(db []window.VS, stored func() []int) ([]int, error) {
	if stored == nil {
		return HeuristicOrder(db), nil
	}
	order := stored()
	if len(order) != len(db) {
		return nil, fmt.Errorf("%w: stored heuristic order covers %d bags, database has %d",
			ErrStaleIndex, len(order), len(db))
	}
	return order, nil
}

// FallbackOrder is the ranking an OrderRanker returns without usable
// positive feedback: HeuristicOrder(db), copied from stored when
// stored is non-nil, so the caller owns the slice and cannot write
// into the stored order. A stored order of the wrong length fails
// with ErrStaleIndex.
func FallbackOrder(db []window.VS, stored func() []int) ([]int, error) {
	if stored == nil {
		return HeuristicOrder(db), nil
	}
	order, err := storedOrder(db, stored)
	if err != nil {
		return nil, err
	}
	return slices.Clone(order), nil
}

// HasBag reports whether some VS of db labelled l holds a TS, that is
// whether a trainer would get a bag of that label. Engines check it
// before building bags, so a round that will fall back builds none.
func HasBag(db []window.VS, labels map[int]mil.Label, l mil.Label) bool {
	for _, vs := range db {
		if len(vs.TSs) > 0 && labels[vs.Index] == l {
			return true
		}
	}
	return false
}

// MILCache is an empty placeholder kept so that code written against
// the removed cross-round distance cache still compiles: MILEngine
// computes its distances directly every round. Its counters always
// read zero.
type MILCache struct{}

// NewMILCache returns an empty MILCache.
func NewMILCache() *MILCache { return &MILCache{} }

// Stats returns zero hits and zero misses.
func (c *MILCache) Stats() (hits, misses uint64) { return 0, 0 }

// ResetStats does nothing.
func (c *MILCache) ResetStats() {}

// MILEngine is the paper's proposed framework: bags from labeled VSs,
// a One-class SVM trained with ν = δ from Eq. (9) on the training set
// assembled per §5.3 — "the highest scored TSs in the relevant VSs" —
// ranking by the bag-level max decision value.
type MILEngine struct {
	// Opt forwards to the MIL learner (Z, kernel, overrides).
	Opt mil.Options
	// TopTSRatio controls the §5.3 training-set selection: from each
	// relevant VS, the highest-scored TS enters the training set,
	// together with any TS whose heuristic score is at least
	// TopTSRatio times the best (capturing multi-vehicle accidents,
	// where several TSs spike together — the reason Eq. (9) allows
	// H > h). 0 means the default of 0.5; a negative value disables
	// the selection and trains on every instance of relevant bags
	// (the ablation in the package benches: the unselected variant
	// collapses onto the dense normal-driving cluster).
	TopTSRatio float64
}

// Name implements Engine.
func (e MILEngine) Name() string { return "MIL-OCSVM" }

// Rank implements Engine.
func (e MILEngine) Rank(db []window.VS, labels map[int]mil.Label) ([]int, error) {
	return e.RankOrder(db, labels, nil)
}

// RankOrder implements OrderRanker.
func (e MILEngine) RankOrder(db []window.VS, labels map[int]mil.Label, stored func() []int) ([]int, error) {
	ratio := e.TopTSRatio
	if ratio == 0 {
		ratio = 0.5
	}
	// mil.Train reads only the positive bags, so only they are built,
	// in database order. With none that holds a TS, Train would return
	// ErrNoPositiveBags: rank heuristically before building anything.
	var training []mil.Bag
	for _, vs := range db {
		if labels[vs.Index] == mil.Positive && len(vs.TSs) > 0 {
			training = append(training, toBag(vs, mil.Positive, ratio))
		}
	}
	if len(training) == 0 {
		return FallbackOrder(db, stored)
	}
	learner, err := mil.Train(training, e.Opt)
	if errors.Is(err, mil.ErrNoPositiveBags) {
		return FallbackOrder(db, stored)
	}
	if err != nil {
		return nil, fmt.Errorf("retrieval: %s: %w", e.Name(), err)
	}
	scoring := make([]mil.Bag, len(db))
	for i, vs := range db {
		scoring[i] = toBag(vs, labels[vs.Index], 0)
	}
	scores := make([]float64, len(db))
	for i := range db {
		s, ok, err := learner.BagScore(scoring[i])
		if err != nil {
			return nil, fmt.Errorf("retrieval: %s: %w", e.Name(), err)
		}
		if !ok {
			s = math.Inf(-1) // empty VS: nothing to retrieve
		}
		scores[i] = s
	}
	return rankByScore(scores), nil
}

// toBag converts one VS into a MIL bag carrying label. When
// topRatio > 0, a positive bag keeps only its highest-scored TSs (the
// best one plus any within topRatio of it, scored by the §5.3
// squared-sum heuristic); other bags always keep all instances.
func toBag(vs window.VS, label mil.Label, topRatio float64) mil.Bag {
	b := mil.Bag{ID: vs.Index, Label: label}
	keep := func(window.TS) bool { return true }
	if topRatio > 0 && label == mil.Positive && len(vs.TSs) > 1 {
		best := math.Inf(-1)
		tsScores := make(map[int]float64, len(vs.TSs))
		for _, ts := range vs.TSs {
			s := tsHeuristicScore(ts)
			tsScores[ts.TrackID] = s
			if s > best {
				best = s
			}
		}
		thresh := best * topRatio
		if best <= 0 {
			thresh = best // degenerate scores: keep only the best
		}
		keep = func(ts window.TS) bool { return tsScores[ts.TrackID] >= thresh }
	}
	for _, ts := range vs.TSs {
		if !keep(ts) {
			continue
		}
		b.Instances = append(b.Instances, ts.Flat())
	}
	return b
}

// tsHeuristicScore is the §5.3 TS score: the squared sum of the
// feature vector, maximized over the TS's sampling points.
func tsHeuristicScore(ts window.TS) float64 {
	best := math.Inf(-1)
	for _, f := range ts.Vectors {
		s := 0.0
		for _, v := range f {
			s += v * v
		}
		if s > best {
			best = s
		}
	}
	return best
}

// WeightedEngine is the paper's §6.2 comparison baseline: inverse-
// standard-deviation feature re-weighting over the relevant examples,
// scoring by the weighted squared sum maximized over points and TSs.
type WeightedEngine struct {
	// Norm selects the weight normalization (paper prefers
	// Percentage).
	Norm rf.Normalization
}

// Name implements Engine.
func (e WeightedEngine) Name() string { return "Weighted-RF(" + e.Norm.String() + ")" }

// Rank implements Engine.
func (e WeightedEngine) Rank(db []window.VS, labels map[int]mil.Label) ([]int, error) {
	dim := instanceDim(db)
	if dim == 0 {
		return HeuristicOrder(db), nil
	}
	w, err := rf.NewWeighted(dim, e.Norm)
	if err != nil {
		return nil, fmt.Errorf("retrieval: %s: %w", e.Name(), err)
	}
	rel := relevantPointVectors(db, labels)
	if len(rel) > 0 {
		if err := w.Update(rel); err != nil {
			return nil, fmt.Errorf("retrieval: %s: %w", e.Name(), err)
		}
	}
	scores := make([]float64, len(db))
	for i, vs := range db {
		best := math.Inf(-1)
		for _, ts := range vs.TSs {
			s, err := w.SeriesScore(ts.Vectors)
			if err != nil {
				return nil, fmt.Errorf("retrieval: %s: %w", e.Name(), err)
			}
			if s > best {
				best = s
			}
		}
		scores[i] = best
	}
	return rankByScore(scores), nil
}

// RocchioEngine is an additional classical comparator: query-point
// movement over the per-point feature vectors.
type RocchioEngine struct{}

// Name implements Engine.
func (RocchioEngine) Name() string { return "Rocchio" }

// Rank implements Engine.
func (e RocchioEngine) Rank(db []window.VS, labels map[int]mil.Label) ([]int, error) {
	return e.RankOrder(db, labels, nil)
}

// RankOrder implements OrderRanker.
func (e RocchioEngine) RankOrder(db []window.VS, labels map[int]mil.Label, stored func() []int) ([]int, error) {
	rel := relevantPointVectors(db, labels)
	if len(rel) == 0 {
		return FallbackOrder(db, stored)
	}
	var irr [][]float64
	for _, vs := range db {
		if labels[vs.Index] != mil.Negative {
			continue
		}
		for _, ts := range vs.TSs {
			irr = append(irr, ts.Vectors...)
		}
	}
	// Start at the relevant centroid, then apply one movement step
	// with both example sets.
	dim := len(rel[0])
	q := make([]float64, dim)
	for _, v := range rel {
		for j := range v {
			q[j] += v[j]
		}
	}
	for j := range q {
		q[j] /= float64(len(rel))
	}
	r, err := rf.NewRocchio(q)
	if err != nil {
		return nil, fmt.Errorf("retrieval: Rocchio: %w", err)
	}
	if len(irr) > 0 {
		if err := r.Update(nil, irr); err != nil {
			return nil, fmt.Errorf("retrieval: Rocchio: %w", err)
		}
	}
	scores := make([]float64, len(db))
	for i, vs := range db {
		best := math.Inf(-1)
		for _, ts := range vs.TSs {
			s, err := r.SeriesScore(ts.Vectors)
			if err != nil {
				return nil, fmt.Errorf("retrieval: Rocchio: %w", err)
			}
			if s > best {
				best = s
			}
		}
		scores[i] = best
	}
	return rankByScore(scores), nil
}

// relevantPointVectors gathers the per-point feature vectors of every
// TS inside positively labeled VSs.
func relevantPointVectors(db []window.VS, labels map[int]mil.Label) [][]float64 {
	var out [][]float64
	for _, vs := range db {
		if labels[vs.Index] != mil.Positive {
			continue
		}
		for _, ts := range vs.TSs {
			out = append(out, ts.Vectors...)
		}
	}
	return out
}

// instanceDim returns the per-point feature dimension of the database
// (0 when every VS is empty).
func instanceDim(db []window.VS) int {
	for _, vs := range db {
		for _, ts := range vs.TSs {
			for _, v := range ts.Vectors {
				return len(v)
			}
		}
	}
	return 0
}
