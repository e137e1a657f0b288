package index

import (
	"fmt"
	"math"
	"sync"
	"time"

	"milvideo/internal/kernel"
	"milvideo/internal/window"
)

// Kind names a candidate-index structure.
type Kind string

// KindVPTree is the one index structure: a VP-tree over the instance
// vectors (float rows, or PQ codes with Options.Quant).
const KindVPTree Kind = "vptree"

// ParseKind validates an index name from a flag or query parameter.
func ParseKind(s string) (Kind, error) {
	if Kind(s) != KindVPTree {
		return "", fmt.Errorf("index: unknown kind %q (have %s)", s, KindVPTree)
	}
	return KindVPTree, nil
}

// Options tunes a BagIndex build and its probes. The zero value is a
// sensible default for every field.
type Options struct {
	// Seed drives vantage selection and PQ training (default 1).
	Seed int64
	// LeafSize forwards to VPOptions.LeafSize.
	LeafSize int
	// PerProbeK is the per-probe instance k-NN depth (default C + 16
	// at probe time, clamped to the live instances). Deeper probes
	// improve bag recall when bags hold many instances.
	PerProbeK int
	// Quant selects the instance store: QuantNone keeps full float64
	// rows (the default), QuantPQ stores product-quantizer codes.
	// Quantized probing is lossy only in the probe stage; the
	// retrieval layer's exact re-rank rescores every candidate from
	// uncompressed features.
	Quant QuantKind
	// Quantizer, when set, is adopted instead of training one (and
	// Quant is ignored). Pre-training pins the reconstruction lattice,
	// making separately built indexes directly comparable — the
	// incremental equivalence tests share one quantizer across builds.
	Quantizer *ProductQuantizer
	// RebuildFraction is the churn ratio — instances inserted plus
	// deleted since the last build, over the instance count at that
	// build — beyond which Update rebuilds instead of applying another
	// delta (default 0.25). Rebuilds compact tombstones and restore
	// structure balance; the trained quantizer is reused, never
	// retrained.
	RebuildFraction float64
}

// ProbeStats accounts one Candidates call (or an accumulation of
// them): probes issued and distance evaluations spent across them.
type ProbeStats struct {
	Probes    int
	DistEvals int
}

// MaintStats accounts a BagIndex's incremental-maintenance history.
type MaintStats struct {
	// Inserted and Deleted count instances applied as deltas (not
	// counting instances placed by builds).
	Inserted uint64
	// Deleted counts tombstoned instances.
	Deleted uint64
	// Applies counts Update calls that applied a delta (including
	// verified-unchanged no-ops); Rebuilds counts Update calls that
	// crossed the churn threshold and rebuilt instead.
	Applies  uint64
	Rebuilds uint64
	// Tombstones is the current deleted-but-resident instance count
	// (compacted to zero by the next rebuild).
	Tombstones int
}

// MemoryStats accounts the index's resident instance storage.
type MemoryStats struct {
	// Instances is the stored instance count (tombstones included —
	// they stay resident until a rebuild compacts them).
	Instances int
	// PointBytes is the resident instance store: packed codes when
	// quantized, the float block otherwise.
	PointBytes int
	// CodebookBytes is the trained quantizer's resident size (zero
	// unquantized).
	CodebookBytes int
	// FloatBytes is what a float64 store of the same instances would
	// hold (8·dim·Instances) — the baseline the compression ratio is
	// measured against.
	FloatBytes int
}

// UpdateResult reports what one Update call did.
type UpdateResult struct {
	// Inserted and Deleted count the instances applied as a delta
	// (both zero for a verified-unchanged database).
	Inserted int
	Deleted  int
	// Rebuilt reports that churn crossed the rebuild threshold and
	// the structures were rebuilt instead of amended.
	Rebuilt bool
}

// BagIndex is a candidate index over a VS database: every TS instance
// vector of every bag is indexed in one VP-tree, and probe
// hits aggregate back to the owning bag by max-instance similarity —
// a bag's score is its closest instance's distance to any probe, the
// same "most eventful instance speaks for the bag" rule the MIL
// ranking itself applies (BagScore maximizes the decision value over
// instances).
//
// A BagIndex is mutable through Update and safe for concurrent use:
// probes share a read lock while Update holds the write lock. The
// database passed to Update is diffed against the indexed one by
// VS.Index under the videodb record-immutability contract — a VS
// keeps its feature content for as long as it keeps its index.
type BagIndex struct {
	mu  sync.RWMutex
	opt Options
	qz  *ProductQuantizer
	// trainTime is the quantizer training cost (zero when adopted
	// pre-trained or unquantized). Set once: rebuilds reuse the
	// trained quantizer.
	trainTime time.Duration
	bags      int
	// span is the VS.Index at the first and last positions of the
	// covered database (see CandidatesOver).
	span [2]int
	dim  int
	vp   *VPTree
	// owner maps instance id → bag position in the current database
	// (stale entries for tombstoned ids are never read: searches skip
	// dead points). byVS maps VS.Index → its live instance ids.
	owner []int
	byVS  map[int][]int
	// Churn accounting: deltas since the last build, the instance
	// count at that build (the rebuild threshold's denominator), and
	// the lifetime counters MaintStats reports.
	churn     int
	baseline  int
	inserted  uint64
	deleted   uint64
	applies   uint64
	rebuilds  uint64
	scratches sync.Pool
}

// Build indexes the instance vectors of db. Empty VSs contribute no
// instances (they can never be index candidates; the retrieval
// wrapper ranks them by its fallback ordering). A database with no
// instances at all yields a valid index whose probes return nothing.
func Build(db []window.VS, kind Kind, opt Options) (*BagIndex, error) {
	if _, err := ParseKind(string(kind)); err != nil {
		return nil, err
	}
	if _, err := ParseQuantKind(string(opt.Quant)); err != nil {
		return nil, err
	}
	if opt.RebuildFraction <= 0 {
		opt.RebuildFraction = 0.25
	}
	bi := &BagIndex{opt: opt, qz: opt.Quantizer, dim: -1}
	bi.scratches.New = func() any { return NewScratch() }
	if err := bi.rebuildLocked(db); err != nil {
		return nil, err
	}
	return bi, nil
}

// flatten extracts db's instance vectors, owners and VS mapping,
// validating dimensions against dim (-1 adopts the first instance's).
func flatten(db []window.VS, dim int) (pts [][]float64, owner []int, byVS map[int][]int, outDim int, err error) {
	byVS = make(map[int][]int, len(db))
	for pos, vs := range db {
		for _, ts := range vs.TSs {
			flat := ts.Flat()
			if dim == -1 {
				dim = len(flat)
			} else if len(flat) != dim {
				return nil, nil, nil, dim, fmt.Errorf("%w: VS %d instance has dim %d, want %d",
					ErrDim, vs.Index, len(flat), dim)
			}
			byVS[vs.Index] = append(byVS[vs.Index], len(pts))
			pts = append(pts, flat)
			owner = append(owner, pos)
		}
	}
	return pts, owner, byVS, dim, nil
}

// rebuildLocked (re)constructs the structures from db. Callers hold
// the write lock (or own the index exclusively, as Build does). The
// quantizer is trained on the first build that has instances and
// reused ever after, so rebuilds never shift the reconstruction
// lattice under live sessions.
func (bi *BagIndex) rebuildLocked(db []window.VS) error {
	pts, owner, byVS, dim, err := flatten(db, -1)
	if err != nil {
		return err
	}
	if bi.dim != -1 && dim != -1 && dim != bi.dim {
		return fmt.Errorf("%w: database dim %d, index dim %d", ErrDim, dim, bi.dim)
	}
	if dim == -1 {
		dim = bi.dim
	}
	if bi.qz == nil && bi.opt.Quant == QuantPQ && len(pts) > 0 {
		blk, err := kernel.FeatureBlockFromRows(pts)
		if err != nil {
			return err
		}
		start := time.Now()
		bi.qz, err = TrainProductQuantizer(blk, PQOptions{Seed: bi.opt.Seed})
		if err != nil {
			return err
		}
		bi.trainTime = time.Since(start)
	}
	if bi.qz != nil && dim != -1 && bi.qz.Dim() != dim {
		return fmt.Errorf("%w: quantizer dim %d, database dim %d", ErrDim, bi.qz.Dim(), dim)
	}
	var vp *VPTree
	if len(pts) > 0 {
		vp, err = BuildVPTree(pts, VPOptions{
			LeafSize: bi.opt.LeafSize, Seed: bi.opt.Seed, Quantizer: bi.qz,
		})
		if err != nil {
			return err
		}
	}
	bi.vp = vp
	bi.bags, bi.span, bi.dim = len(db), spanOf(db), dim
	bi.owner, bi.byVS = owner, byVS
	bi.churn, bi.baseline = 0, len(pts)
	return nil
}

// QuantName reports the trained quantizer ("" when unquantized).
func (bi *BagIndex) QuantName() string {
	if bi.qz == nil {
		return ""
	}
	return bi.qz.Name()
}

// TrainTime reports the quantizer training cost (zero when adopted
// pre-trained or unquantized).
func (bi *BagIndex) TrainTime() time.Duration { return bi.trainTime }

// Bags reports the database size the index currently covers.
func (bi *BagIndex) Bags() int {
	bi.mu.RLock()
	defer bi.mu.RUnlock()
	return bi.bags
}

// Instances reports the live indexed instance count.
func (bi *BagIndex) Instances() int {
	bi.mu.RLock()
	defer bi.mu.RUnlock()
	return bi.liveLocked()
}

func (bi *BagIndex) liveLocked() int {
	if bi.vp == nil {
		return 0
	}
	return bi.vp.Live()
}

// Maintenance reports the incremental-maintenance counters.
func (bi *BagIndex) Maintenance() MaintStats {
	bi.mu.RLock()
	defer bi.mu.RUnlock()
	m := MaintStats{
		Inserted: bi.inserted, Deleted: bi.deleted,
		Applies: bi.applies, Rebuilds: bi.rebuilds,
	}
	if bi.vp != nil {
		m.Tombstones = bi.vp.Tombstones()
	}
	return m
}

// Memory reports the resident instance storage (see MemoryStats).
func (bi *BagIndex) Memory() MemoryStats {
	bi.mu.RLock()
	defer bi.mu.RUnlock()
	var m MemoryStats
	if bi.vp != nil {
		m.Instances, m.PointBytes = bi.vp.Len(), bi.vp.PointBytes()
	}
	if bi.qz != nil {
		m.CodebookBytes = bi.qz.Bytes()
	}
	if bi.dim > 0 {
		m.FloatBytes = 8 * bi.dim * m.Instances
	}
	return m
}

// Update brings the index in line with newDB, diffing by VS.Index:
// instances of departed VSs are tombstoned, instances of new VSs are
// inserted in place, and surviving bags are re-mapped to their new
// positions — no rebuild, unless accumulated churn since the last
// build exceeds Options.RebuildFraction of the instance count at that
// build, in which case the structures are rebuilt (compacting
// tombstones) with the same trained quantizer. Under the videodb
// record-immutability contract a surviving VS.Index implies unchanged
// feature content; callers replacing content under a reused index
// must rebuild instead (the server detects this case by backing-array
// identity and constructs a fresh index).
//
// After Update, probes return exactly what a fresh build over newDB
// would return (given the same quantizer).
func (bi *BagIndex) Update(newDB []window.VS) (UpdateResult, error) {
	bi.mu.Lock()
	defer bi.mu.Unlock()
	var res UpdateResult

	// Diff: departed VSs and their instance ids, arriving VSs.
	inNew := make(map[int]bool, len(newDB))
	for _, vs := range newDB {
		inNew[vs.Index] = true
	}
	var delIDs []int
	for vsIdx, ids := range bi.byVS {
		if !inNew[vsIdx] {
			delIDs = append(delIDs, ids...)
		}
	}
	var added []window.VS
	for _, vs := range newDB {
		if _, ok := bi.byVS[vs.Index]; !ok {
			added = append(added, vs)
		}
	}
	// Validate the arriving instances before mutating anything.
	addPts, _, addByVS, dim, err := flatten(added, bi.dim)
	if err != nil {
		return res, err
	}
	res.Inserted, res.Deleted = len(addPts), len(delIDs)

	threshold := int(bi.opt.RebuildFraction * float64(bi.baseline))
	if bi.vp == nil || (bi.qz != nil && dim != -1 && bi.qz.Dim() != dim) ||
		bi.churn+len(addPts)+len(delIDs) > threshold {
		// Over-threshold churn (or no structure to amend yet): rebuild
		// from newDB, compacting tombstones. The quantizer survives.
		if err := bi.rebuildLocked(newDB); err != nil {
			return res, err
		}
		bi.rebuilds++
		res.Rebuilt = true
		return res, nil
	}

	// Delta-apply: tombstone departures, thread in arrivals.
	for _, id := range delIDs {
		bi.vp.Delete(id)
	}
	for vsIdx, addIdx := range addByVS {
		ids := make([]int, 0, len(addIdx))
		for _, ai := range addIdx {
			id := bi.vp.Insert(addPts[ai])
			ids = append(ids, id)
			for id >= len(bi.owner) {
				bi.owner = append(bi.owner, -1)
			}
		}
		bi.byVS[vsIdx] = ids
	}
	for vsIdx := range bi.byVS {
		if !inNew[vsIdx] {
			delete(bi.byVS, vsIdx)
		}
	}
	// Re-map every surviving bag to its position in newDB.
	for pos, vs := range newDB {
		for _, id := range bi.byVS[vs.Index] {
			bi.owner[id] = pos
		}
	}
	bi.bags, bi.span = len(newDB), spanOf(newDB)
	if bi.dim == -1 {
		bi.dim = dim
	}
	bi.churn += len(addPts) + len(delIDs)
	bi.inserted += uint64(len(addPts))
	bi.deleted += uint64(len(delIDs))
	bi.applies++
	return res, nil
}

// BagHit is one candidate bag from a probe pass: its position in the
// indexed database and the minimum Euclidean distance from any probe
// to any of its instances — measured to the instance's reconstruction
// when the index is quantized (the max-instance aggregate the
// candidate set is ordered by).
type BagHit struct {
	Pos  int
	Dist float64
}

// Candidates probes the index with each query vector and returns up
// to c candidate bag positions, best first: bags are scored by the
// minimum distance from any probe to any of their instances
// (max-instance aggregation), ties broken by ascending position.
// Probes whose dimension does not match the index are skipped.
func (bi *BagIndex) Candidates(probes [][]float64, c int) ([]int, ProbeStats) {
	bi.mu.RLock()
	defer bi.mu.RUnlock()
	sc := bi.scratches.Get().(*Scratch)
	defer bi.scratches.Put(sc)
	hits, _, stats := bi.candidatesLocked(probes, c, nil, sc)
	if hits == nil {
		return nil, stats
	}
	out := make([]int, len(hits))
	for i, h := range hits {
		out[i] = h.Pos
	}
	return out, stats
}

// CandidatesOver probes like Candidates for a caller holding the
// database it ranks, keeping each candidate's aggregated distance —
// the currency a scatter–gather merge needs to order one shard's
// answers against another's. Under the probe's read lock it checks
// that the index covers db and returns ErrStale if not. At steady
// retention a live commit evicts as many VSs as it appends, so the
// count alone cannot tell generations apart; the VS.Index at the
// first and last positions can, since the feed evicts the oldest VSs,
// appends new ones and never reuses an index.
//
// bounds and kth are the two halves of a scout-and-carry scatter.
// bounds[i], when positive and finite, is an initial pruning radius
// for probe i: subtrees wholly beyond it are pruned, so bags whose
// best instance lies beyond bounds[i] for every probe may be missing
// from the result — the caller holds candidates of that quality from
// another shard already. nil (or an infinite entry) means unbounded.
// The returned kth slice has one entry per probe: the distance of the
// k-th instance neighbor that probe actually retrieved, or +Inf when
// it retrieved fewer than k (dimension mismatch, a tight incoming
// bound, the probes' shared threshold cutting it short, or a small
// index). Each finite kth[i] upper-bounds the true k-th neighbor
// distance of probe i over this shard's instances, which is what makes
// it a sound carried bound for another shard of the same quantile
// share.
func (bi *BagIndex) CandidatesOver(db []window.VS, probes [][]float64, c int, bounds []float64) ([]BagHit, []float64, ProbeStats, error) {
	bi.mu.RLock()
	defer bi.mu.RUnlock()
	if sp := spanOf(db); len(db) != bi.bags || sp != bi.span {
		return nil, nil, ProbeStats{}, fmt.Errorf("%w: index covers %d bags (VS %d…%d), database has %d (VS %d…%d)",
			ErrStale, bi.bags, bi.span[0], bi.span[1], len(db), sp[0], sp[1])
	}
	sc := bi.scratches.Get().(*Scratch)
	defer bi.scratches.Put(sc)
	hits, kth, stats := bi.candidatesLocked(probes, c, bounds, sc)
	return hits, kth, stats, nil
}

// spanOf returns the VS.Index at db's first and last positions (zeros
// for an empty database).
func spanOf(db []window.VS) [2]int {
	if len(db) == 0 {
		return [2]int{}
	}
	return [2]int{db[0].Index, db[len(db)-1].Index}
}

// candidatesLocked is the probe pass behind Candidates and
// CandidatesOver, run under the read lock with its scratch passed in.
// Each probe's hits arrive unsorted — only their per-bag minimum
// matters — and aggregate into the scratch's dense per-position
// distances.
//
// The probes share one threshold tau: an upper bound on the c-th best
// (distance, position) bag aggregated so far, +Inf until c bags are
// in. Each probe searches within min(its incoming bound, tau), and
// hits beyond tau are dropped. No candidate changes: a bag that ends
// in the top c is at most the final c-th distance from its nearest
// probe, hence within every probe's tau, and the VP-tree search
// returns every hit of its exact k-NN that lies within its bound, ties
// at the bound included. cand lists the bags at or under tau; tau is
// re-selected over cand only after c hits have lowered a bag since the
// last selection — the k-best buffer's rule lifted to bags — so it
// costs amortized O(1) per hit, and in between it is stale but still
// an upper bound. The answer is then the c best of cand.
func (bi *BagIndex) candidatesLocked(probes [][]float64, c int, bounds []float64, sc *Scratch) ([]BagHit, []float64, ProbeStats) {
	var stats ProbeStats
	kth := make([]float64, len(probes))
	for i := range kth {
		kth[i] = math.Inf(1)
	}
	live := bi.liveLocked()
	if c <= 0 || live == 0 {
		return nil, kth, stats
	}
	k := bi.opt.PerProbeK
	if k <= 0 {
		// Each probe need not cover the candidate set alone — the union
		// over probes does — so per-probe depth well under c keeps
		// probes cheap without starving the aggregation.
		k = c + 16
	}
	k = min(k, live)
	for len(sc.bagDist) < bi.bags {
		sc.bagDist = append(sc.bagDist, -1)
	}
	best := sc.bagDist
	touched, cand := sc.touched[:0], sc.cand[:0]
	tau, fresh := math.Inf(1), 0
	for qi, q := range probes {
		if len(q) != bi.dim {
			continue
		}
		stats.Probes++
		// A zero bound would read as unbounded to the search.
		bound := max(tau, math.SmallestNonzeroFloat64)
		if bounds != nil && bounds[qi] > 0 && bounds[qi] < bound {
			bound = bounds[qi]
		}
		hits, qkth, evals := bi.vp.knn(q, k, bound, sc)
		kth[qi] = qkth
		stats.DistEvals += evals
		for _, h := range hits {
			if h.Dist > tau {
				continue
			}
			bag := bi.owner[h.Idx]
			// Distances are never negative, so -1 marks a bag no hit
			// has reached yet.
			prev := best[bag]
			if prev < 0 {
				touched = append(touched, bag)
			} else if !(h.Dist < prev) {
				continue
			}
			best[bag] = h.Dist
			if prev < 0 || prev > tau {
				cand = append(cand, Neighbor{Idx: bag})
			}
			fresh++
		}
		if fresh >= c && len(cand) >= c {
			var cth float64
			if cand, cth = topBags(cand, c, best); cth < tau {
				tau = cth
			}
			fresh = 0
		}
	}
	var out []BagHit
	if n := min(c, len(cand)); n > 0 {
		cand, _ = topBags(cand, n, best)
		sortNeighbors(cand[:n])
		// The scratch buffers are recycled; hand the caller a copy.
		out = make([]BagHit, n)
		for i, nb := range cand[:n] {
			out[i] = BagHit{Pos: nb.Idx, Dist: nb.Dist}
		}
	}
	for _, bag := range touched {
		best[bag] = -1
	}
	sc.touched, sc.cand = touched[:0], cand[:0]
	return out, kth, stats
}

// topBags refreshes the bag distances in cand from best and cuts cand
// to its c best bags by (distance, position), keeping any tied with
// the c-th, which it returns. 1 <= c <= len(cand).
func topBags(cand []Neighbor, c int, best []float64) ([]Neighbor, float64) {
	for i := range cand {
		cand[i].Dist = best[cand[i].Idx]
	}
	selectK(cand, c)
	cth := cand[c-1].Dist
	n := c
	for _, nb := range cand[c:] {
		if !(nb.Dist > cth) {
			cand[n] = nb
			n++
		}
	}
	return cand[:n], cth
}
