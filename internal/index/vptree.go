// Package index provides the metric-space candidate index over
// instance (trajectory-sequence) feature vectors: a vantage-point tree
// with exact k-NN, optionally over product-quantizer codes, and a
// BagIndex that maps instance hits back to their owning video
// sequence. The retrieval layer uses it to prune the database to a
// small candidate set before exact MIL re-ranking, turning per-round
// query cost from linear in the catalog into the tree's sublinear
// probe cost plus a constant-size re-rank.
//
// The tree measures in the Euclidean metric underlying
// kernel.SquaredDistance — the same metric the RBF kernel is a pure
// function of — so "near in the index" and "high kernel similarity"
// agree exactly. All construction and search paths are deterministic
// given the build seed, with ties broken by ascending point index.
//
// Storage is columnar: point vectors live in one kernel.FeatureBlock
// (or, with a ProductQuantizer, one packed code buffer), so probe
// scans stream contiguous memory. The tree also supports incremental
// maintenance — Insert appends a point, Delete tombstones one — with
// searches over the mutated tree returning exactly what a fresh build
// over the surviving points would (the BagIndex layers a rebuild
// threshold on top so tombstones never accumulate unbounded).
package index

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"milvideo/internal/kernel"
)

// Errors returned by the builders.
var (
	// ErrNoPoints is returned when an index is built over zero vectors.
	ErrNoPoints = errors.New("index: no points")
	// ErrDim is returned when points (or a query) differ in dimension.
	ErrDim = errors.New("index: dimension mismatch")
	// ErrStale is returned by BagIndex.CandidatesOver when the index
	// covers a different database than the caller's.
	ErrStale = errors.New("index: index covers a different database")
)

// Neighbor is one k-NN result: the point's index in the build slice
// and its Euclidean distance to the query.
type Neighbor struct {
	Idx  int
	Dist float64
}

// Scratch holds per-query probe buffers (ADC tables, k-best buffers,
// per-bag aggregation) so repeated probes allocate nothing. A Scratch
// belongs to one search at a time; results returned by the
// scratch-accepting searches alias its buffers and must be consumed
// before the next search reuses it.
type Scratch struct {
	tab  []float64
	best []Neighbor
	// bagDist is BagIndex's per-position best distance, -1 where no
	// hit landed; touched lists the positions set since the last
	// reset, so a probe pass resets only what it wrote. cand lists the
	// positions at or under the pass's shared threshold.
	bagDist []float64
	touched []int
	cand    []Neighbor
}

// NewScratch returns an empty scratch; buffers grow on first use.
func NewScratch() *Scratch { return &Scratch{} }

// adcTab returns the scratch's ADC table sized for qz, filled for q.
func (sc *Scratch) adcTab(qz *ProductQuantizer, q []float64) []float64 {
	n := qz.TabLen()
	if cap(sc.tab) < n {
		sc.tab = make([]float64, n)
	}
	sc.tab = sc.tab[:n]
	qz.FillADC(q, sc.tab)
	return sc.tab
}

// VPTree is a vantage-point tree over a point set: a binary metric
// tree where each node splits its subset by the median distance to a
// vantage point, enabling triangle-inequality pruning. Build is
// O(n log n) distance evaluations, and a subset of coincident points
// is split without measuring any (see buildChain); an exact k-NN
// visits a small fraction of the points when the intrinsic dimension
// is moderate (the 9–27-dim TS feature vectors here).
//
// With a ProductQuantizer the tree indexes the quantized
// reconstructions: codes replace the float rows (CodeLen bytes per
// point instead of 8·dim), radii are measured between
// reconstructions, and searches measure through the per-query ADC
// table. Since the reconstructions form an ordinary point set under
// the Euclidean metric, pruning stays sound and searches stay exact —
// over the reconstructed points; the quantization displacement is the
// only approximation, and the retrieval layer's exact MIL re-rank
// absorbs it.
//
// Insert appends a point and threads it into the existing splits
// (radii never move, so the tree stays search-exact at the cost of
// gradually loosening balance); Delete tombstones one. The tree is
// not internally synchronized — BagIndex serializes mutation.
type VPTree struct {
	blk   *kernel.FeatureBlock // float rows (nil when quantized)
	codes *codeStore           // packed codes (nil when unquantized)
	dim   int
	nodes []vpNode
	root  int32
	dead  []bool
	live  int
}

// vpNode is one tree node. Leaves hold their points inline; inner
// nodes hold the vantage point and the median-radius split.
type vpNode struct {
	vantage int     // point index (inner nodes)
	radius  float64 // median distance from vantage to the subset
	inner   int32   // child holding points with d <= radius (−1 = none)
	outer   int32   // child holding points with d > radius (−1 = none)
	leaf    []int   // leaf point indices (nil for inner nodes)
}

// VPOptions tunes construction.
type VPOptions struct {
	// LeafSize is the subset size below which a node becomes a leaf
	// (default 8). Larger leaves trade pruning for fewer recursions.
	LeafSize int
	// Seed drives vantage-point selection (default 1). Any seed yields
	// a correct tree; the seed only shapes balance.
	Seed int64
	// Quantizer, when set, stores CodeLen-byte codes instead of float
	// rows and builds the tree over their reconstructions.
	Quantizer *ProductQuantizer
}

func (o VPOptions) withDefaults() VPOptions {
	if o.LeafSize <= 0 {
		o.LeafSize = 8
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// BuildVPTree constructs the tree over pts (copied into the tree's
// columnar store; the input slice is not retained).
func BuildVPTree(pts [][]float64, opt VPOptions) (*VPTree, error) {
	if len(pts) == 0 {
		return nil, ErrNoPoints
	}
	dim := len(pts[0])
	for i, p := range pts {
		if len(p) != dim {
			return nil, fmt.Errorf("%w: point %d has dim %d, want %d", ErrDim, i, len(p), dim)
		}
	}
	opt = opt.withDefaults()
	if opt.Quantizer != nil && opt.Quantizer.Dim() != dim {
		return nil, fmt.Errorf("%w: quantizer dim %d, points dim %d", ErrDim, opt.Quantizer.Dim(), dim)
	}
	t := &VPTree{dim: dim, dead: make([]bool, len(pts)), live: len(pts)}
	if qz := opt.Quantizer; qz != nil {
		t.codes = newCodeStore(qz, len(pts))
		for _, p := range pts {
			t.codes.add(p)
		}
	} else {
		blk, err := kernel.FeatureBlockFromRows(pts)
		if err != nil {
			return nil, err
		}
		t.blk = blk
	}
	ids := make([]int, len(pts))
	for i := range ids {
		ids[i] = i
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	t.root = t.build(ids, opt.LeafSize, rng, make([]vpPair, len(ids)))
	return t, nil
}

// ptDist returns the indexed-space distance between stored points i
// and j: serial float distance when unquantized, code-to-code
// reconstruction distance when quantized (the same grouping the ADC
// search path measures in).
func (t *VPTree) ptDist(i, j int) float64 {
	if t.codes != nil {
		return math.Sqrt(t.codes.qz.CodeDist(t.codes.at(i), t.codes.at(j)))
	}
	return math.Sqrt(t.blk.SquaredDistTo(i, t.blk.Row(j)))
}

// vpPair is one (distance to the vantage, point) entry of a split.
type vpPair struct {
	d  float64
	id int
}

// build recursively constructs the subtree over ids (which it
// reorders in place) and returns its node index. pairs is scratch of
// at least len(ids) entries shared by the whole build, so the build
// allocates only nodes and leaves.
func (t *VPTree) build(ids []int, leafSize int, rng *rand.Rand, pairs []vpPair) int32 {
	if len(ids) == 0 {
		return -1
	}
	if len(ids) <= leafSize {
		return t.addLeaf(ids)
	}
	if t.coincident(ids) {
		return t.buildChain(ids, leafSize, rng)
	}
	// Random vantage point: swap it to the front, split the rest by
	// the median distance to it.
	vi := rng.Intn(len(ids))
	ids[0], ids[vi] = ids[vi], ids[0]
	vantage := ids[0]
	rest := ids[1:]
	ps := pairs[:len(rest)]
	for i, id := range rest {
		ps[i] = vpPair{t.ptDist(id, vantage), id}
	}
	// SortStableFunc runs the insertion-sort and symMerge steps of
	// sort.SliceStable, and this comparator is negative exactly when
	// a.d < b.d, so equal and NaN distances get the order
	// sort.SliceStable on a.d < b.d gives them (buildRef in the tests).
	slices.SortStableFunc(ps, func(a, b vpPair) int {
		if a.d < b.d {
			return -1
		}
		if b.d < a.d {
			return 1
		}
		return 0
	})
	radius := ps[len(ps)/2].d
	// Inner side first, then outer, each in sorted order. Two passes,
	// not a cut at the first d > radius: a NaN distance leaves the
	// pairs unsorted, so a point within the radius can follow one
	// beyond it.
	n := 0
	for _, p := range ps {
		if p.d <= radius {
			rest[n] = p.id
			n++
		}
	}
	o := n
	for _, p := range ps {
		if !(p.d <= radius) {
			rest[o] = p.id
			o++
		}
	}
	t.nodes = append(t.nodes, vpNode{vantage: vantage, radius: radius})
	self := int32(len(t.nodes) - 1)
	inner := t.build(rest[:n], leafSize, rng, pairs)
	outer := t.build(rest[n:], leafSize, rng, pairs)
	t.nodes[self].inner = inner
	t.nodes[self].outer = outer
	return self
}

// addLeaf appends a leaf holding a sorted copy of ids (a
// deterministic scan order).
func (t *VPTree) addLeaf(ids []int) int32 {
	leaf := append([]int(nil), ids...)
	sort.Ints(leaf)
	t.nodes = append(t.nodes, vpNode{leaf: leaf})
	return int32(len(t.nodes) - 1)
}

// coincident reports whether every point of ids is stored exactly as
// ids[0] is (byte-equal codes or == float rows) and ids[0] lies at
// distance 0 from itself. Every distance a split of ids would measure
// is then +0. A NaN or ±Inf coordinate makes the self-distance NaN.
func (t *VPTree) coincident(ids []int) bool {
	if t.codes != nil {
		c0 := t.codes.at(ids[0])
		for _, id := range ids[1:] {
			if !bytes.Equal(t.codes.at(id), c0) {
				return false
			}
		}
	} else {
		r0 := t.blk.Row(ids[0])
		for _, id := range ids[1:] {
			if !slices.Equal(t.blk.Row(id), r0) {
				return false
			}
		}
	}
	return t.ptDist(ids[0], ids[0]) == 0
}

// buildChain builds the subtree over coincident ids without measuring
// a distance, in linear time. A split of such a set finds every
// distance +0: the stable sort keeps the order, the radius is +0,
// every other point goes inner and none outer, down to a leaf. So the
// subtree is a chain of nodes whose inner child is the next node. Each
// level draws its vantage as a split would, which keeps the rng in
// step for the rest of the tree.
func (t *VPTree) buildChain(ids []int, leafSize int, rng *rand.Rand) int32 {
	root := int32(len(t.nodes))
	for len(ids) > leafSize {
		vi := rng.Intn(len(ids))
		ids[0], ids[vi] = ids[vi], ids[0]
		t.nodes = append(t.nodes, vpNode{vantage: ids[0], inner: int32(len(t.nodes) + 1), outer: -1})
		ids = ids[1:]
	}
	t.addLeaf(ids)
	return root
}

// Len reports the stored point count, tombstones included.
func (t *VPTree) Len() int {
	if t.codes != nil {
		return t.codes.len()
	}
	return t.blk.Len()
}

// Live reports the non-tombstoned point count.
func (t *VPTree) Live() int { return t.live }

// Tombstones reports the deleted-but-resident point count.
func (t *VPTree) Tombstones() int { return t.Len() - t.live }

// PointBytes reports the resident bytes of the point store (codes or
// float rows; the shared quantizer codebook is accounted by the
// owner).
func (t *VPTree) PointBytes() int {
	if t.codes != nil {
		return t.codes.bytes()
	}
	return t.blk.Bytes()
}

// Insert appends v and threads it down the existing splits: at each
// inner node it takes the side its vantage distance dictates —
// boundary-inclusive, matching the build's d <= radius rule — and
// lands in a leaf (or becomes a new one where a child was empty).
// Radii never move, so every search bound stays valid; only balance
// degrades, which the BagIndex rebuild threshold caps. Returns the
// new point's index, or -1 on dimension mismatch.
func (t *VPTree) Insert(v []float64) int {
	if len(v) != t.dim {
		return -1
	}
	var id int
	if t.codes != nil {
		id = t.codes.add(v)
	} else {
		id = t.blk.Append(v)
	}
	t.dead = append(t.dead, false)
	t.live++
	if t.root < 0 {
		t.nodes = append(t.nodes, vpNode{leaf: []int{id}})
		t.root = int32(len(t.nodes) - 1)
		return id
	}
	ni := t.root
	for {
		n := &t.nodes[ni]
		if n.leaf != nil {
			// Appended ids exceed every id already stored, so the
			// leaf's ascending scan order is preserved.
			n.leaf = append(n.leaf, id)
			return id
		}
		d := t.ptDist(id, n.vantage)
		child := &n.outer
		if d <= n.radius {
			child = &n.inner
		}
		if *child < 0 {
			t.nodes = append(t.nodes, vpNode{leaf: []int{id}})
			// Note: the append may have moved t.nodes; re-resolve the
			// parent before writing the child link.
			if d <= n.radius {
				t.nodes[ni].inner = int32(len(t.nodes) - 1)
			} else {
				t.nodes[ni].outer = int32(len(t.nodes) - 1)
			}
			return id
		}
		ni = *child
	}
}

// Delete tombstones point id: it stays resident (vantage geometry
// must not move) but no search returns it. Reports whether the id was
// live.
func (t *VPTree) Delete(id int) bool {
	if id < 0 || id >= len(t.dead) || t.dead[id] {
		return false
	}
	t.dead[id] = true
	t.live--
	return true
}

// KNN returns the exact k nearest neighbors of q in ascending
// distance (ties broken by ascending index) and the number of
// distance evaluations spent. k is clamped to the live point count.
func (t *VPTree) KNN(q []float64, k int) ([]Neighbor, int) {
	return t.knnSorted(q, k, math.Inf(1))
}

// knnSorted is knn with its result in the sorted contract of KNN.
func (t *VPTree) knnSorted(q []float64, k int, bound float64) ([]Neighbor, int) {
	res, _, evals := t.knn(q, k, bound, NewScratch())
	sortNeighbors(res)
	return res, evals
}

// knn is the search behind KNN and the bag probe. It starts with the
// pruning radius tau = bound instead of +Inf (a non-positive or NaN
// bound means unbounded), so subtrees wholly beyond bound are skipped
// from the first descent. It returns the k best points it found in no
// particular order, the distance of the k-th of them (+Inf when fewer
// than k were found) and the distance evaluations spent. The result
// holds every point of the exact top k that lies within bound, ties at
// bound included; a bound under the true k-th distance can leave fewer
// than k, and points beyond bound that the search reached before
// pruning engaged may fill the rest. The result aliases sc.
func (t *VPTree) knn(q []float64, k int, bound float64, sc *Scratch) ([]Neighbor, float64, int) {
	if k <= 0 || len(q) != t.dim || t.live == 0 {
		return nil, math.Inf(1), 0
	}
	if math.IsNaN(bound) || bound <= 0 {
		bound = math.Inf(1)
	}
	s := &vpSearch{t: t, q: q, tau: bound, eps: float64(t.dim+8) * 0x1p-53, best: kBest{k: min(k, t.live), buf: sc.best[:0]}}
	if t.codes != nil {
		s.tab = sc.adcTab(t.codes.qz, q)
	}
	s.visit(t.root)
	res, kth := s.best.result()
	sc.best = res // return grown buffer to the scratch
	return res, kth, s.evals
}

// vpSearch carries one query's state: the k-best buffer, the pruning
// radius tau, the prune's rounding allowance eps and the evaluation
// count.
type vpSearch struct {
	t     *VPTree
	q     []float64
	tab   []float64 // ADC table (quantized trees)
	evals int
	tau   float64
	eps   float64
	best  kBest
}

// margin is the rounding allowance of a far-side test at vantage
// distance d and split radius r. The triangle-inequality prune is exact
// only in real arithmetic: on collinear points (an integer lattice) the
// computed d ± tau can land an ulp on the wrong side of the computed
// radius and prune a point that ties the k-th, which brute force keeps.
// A computed distance is within (dim+4)/2 units of roundoff u = 2⁻⁵³
// of the true one (the dim-term sum of squares, then the square root),
// so a relative allowance of (dim+6)·u on d+tau+r covers all three
// distances and the test's own rounding; eps = (dim+8)·u adds
// headroom.
func (s *vpSearch) margin(d, r float64) float64 { return s.eps * (d + s.tau + r) }

// offer records a candidate point. tau only ever tightens: with an
// initial bound the buffer's k-th may still sit beyond it, and the
// bound must keep pruning.
func (s *vpSearch) offer(idx int, d float64) {
	if s.best.push(idx, d) && s.best.kth.Dist < s.tau {
		s.tau = s.best.kth.Dist
	}
}

func (s *vpSearch) dist(idx int) float64 {
	s.evals++
	if s.t.codes != nil {
		return math.Sqrt(s.t.codes.qz.ADCDist(s.tab, s.t.codes.at(idx)))
	}
	return math.Sqrt(s.t.blk.SquaredDistTo(idx, s.q))
}

func (s *vpSearch) visit(ni int32) {
	if ni < 0 {
		return
	}
	n := &s.t.nodes[ni]
	if n.leaf != nil {
		for _, idx := range n.leaf {
			if !s.t.dead[idx] {
				s.offer(idx, s.dist(idx))
			}
		}
		return
	}
	// A tombstoned vantage still routes — its position defines the
	// split — but is never offered as a result.
	d := s.dist(n.vantage)
	if !s.t.dead[n.vantage] {
		s.offer(n.vantage, d)
	}
	// Descend the side containing q first; the far side is visited
	// only when the current kth distance still reaches across the
	// median shell, widened by the rounding margin so that ties never
	// prune.
	if d <= n.radius {
		s.visit(n.inner)
		if d+s.tau >= n.radius-s.margin(d, n.radius) {
			s.visit(n.outer)
		}
	} else {
		s.visit(n.outer)
		if d-s.tau <= n.radius+s.margin(d, n.radius) {
			s.visit(n.inner)
		}
	}
}
