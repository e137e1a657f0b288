package index

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"milvideo/internal/kernel"
)

// randPts draws n seeded d-dim standard-normal vectors.
func randPts(seed int64, n, d int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, d)
		for j := range pts[i] {
			pts[i][j] = rng.NormFloat64()
		}
	}
	return pts
}

// bruteKNN is the oracle: full scan sorted by (distance, index).
func bruteKNN(pts [][]float64, q []float64, k int) []Neighbor {
	res := make([]Neighbor, len(pts))
	for i, p := range pts {
		res[i] = Neighbor{Idx: i, Dist: math.Sqrt(kernel.SquaredDistance(q, p))}
	}
	sort.Slice(res, func(a, b int) bool {
		if res[a].Dist != res[b].Dist {
			return res[a].Dist < res[b].Dist
		}
		return res[a].Idx < res[b].Idx
	})
	if k > len(res) {
		k = len(res)
	}
	return res[:k]
}

// TestVPTreeExactMatchesBruteForce: exact k-NN equals the full-scan
// oracle across sizes, leaf sizes, ks, and in-set/out-of-set queries.
func TestVPTreeExactMatchesBruteForce(t *testing.T) {
	for _, n := range []int{1, 5, 33, 200} {
		for _, leaf := range []int{1, 4, 16} {
			pts := randPts(int64(n), n, 9)
			tree, err := BuildVPTree(pts, VPOptions{LeafSize: leaf, Seed: 7})
			if err != nil {
				t.Fatalf("n=%d leaf=%d: %v", n, leaf, err)
			}
			queries := randPts(99, 10, 9)
			queries = append(queries, pts[0], pts[n/2]) // exact members too
			for qi, q := range queries {
				for _, k := range []int{1, 3, n} {
					got, evals := tree.KNN(q, k)
					want := bruteKNN(pts, q, k)
					if len(got) != len(want) {
						t.Fatalf("n=%d leaf=%d q=%d k=%d: got %d results, want %d",
							n, leaf, qi, k, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("n=%d leaf=%d q=%d k=%d: result %d = %+v, want %+v",
								n, leaf, qi, k, i, got[i], want[i])
						}
					}
					if evals > len(pts)+len(tree.nodes) {
						t.Fatalf("n=%d: %d evals for %d points", n, evals, len(pts))
					}
				}
			}
		}
	}
}

// TestVPTreeBoundCarry: the scout-and-carry initial radius. A bound
// that upper-bounds the true k-th neighbor distance reproduces the
// exact answer (in no more evals), a tighter bound misses nothing
// within it while pruning more of the tree, and the non-positive/NaN
// sentinels mean unbounded.
func TestVPTreeBoundCarry(t *testing.T) {
	pts := randPts(11, 400, 9)
	tree, err := BuildVPTree(pts, VPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const k = 10
	var exactTotal, tightTotal int
	for qi, q := range randPts(12, 6, 9) {
		exact, exactEvals := tree.KNN(q, k)
		exactTotal += exactEvals
		kth := exact[len(exact)-1].Dist

		// Any bound at or above the true k-th distance — including the
		// unbounded sentinels — must reproduce the exact answer without
		// extra work.
		for _, bound := range []float64{kth, kth * 1.5, math.Inf(1), 0, -1, math.NaN()} {
			got, evals := tree.knnSorted(q, k, bound)
			if len(got) != len(exact) {
				t.Fatalf("q=%d bound=%v: %d results, want %d", qi, bound, len(got), len(exact))
			}
			for i := range exact {
				if got[i] != exact[i] {
					t.Fatalf("q=%d bound=%v: result %d = %+v, want %+v", qi, bound, i, got[i], exact[i])
				}
			}
			if bound >= kth && evals > exactEvals {
				t.Fatalf("q=%d bound=%v: %d evals, unbounded needed %d", qi, bound, evals, exactEvals)
			}
		}

		// A bound below the k-th distance trades completeness for
		// pruning, but must still surface every neighbor within it.
		tight := exact[2].Dist
		got, evals := tree.knnSorted(q, k, tight)
		tightTotal += evals
		var within []Neighbor
		for _, nb := range got {
			if nb.Dist <= tight {
				within = append(within, nb)
			}
		}
		for i := 0; i < 3; i++ {
			if i >= len(within) || within[i] != exact[i] {
				t.Fatalf("q=%d: tight bound lost in-bound neighbor %d (%+v); got %v", qi, i, exact[i], within)
			}
		}
	}
	if tightTotal >= exactTotal {
		t.Fatalf("tight bounds pruned nothing: %d evals vs %d unbounded", tightTotal, exactTotal)
	}
}

// TestVPTreeDegenerate: duplicate points and dimension mismatches.
func TestVPTreeDegenerate(t *testing.T) {
	if _, err := BuildVPTree(nil, VPOptions{}); err == nil {
		t.Fatal("empty build succeeded")
	}
	if _, err := BuildVPTree([][]float64{{1, 2}, {1}}, VPOptions{}); err == nil {
		t.Fatal("ragged build succeeded")
	}
	// All-identical points: every distance ties; k-NN returns the k
	// lowest indices at distance 0.
	pts := make([][]float64, 20)
	for i := range pts {
		pts[i] = []float64{1, 2, 3}
	}
	tree, err := BuildVPTree(pts, VPOptions{LeafSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := tree.KNN([]float64{1, 2, 3}, 5)
	for i, nb := range got {
		if nb.Idx != i || nb.Dist != 0 {
			t.Fatalf("duplicate-point kNN[%d] = %+v, want {%d 0}", i, nb, i)
		}
	}
	if res, _ := tree.KNN([]float64{1, 2}, 3); res != nil {
		t.Fatal("dim-mismatched query returned results")
	}
}

// buildRef is the plain VP-tree build, the identity oracle: it
// measures every split, coincident points included, with a
// sort.SliceStable over a distance slice and fresh inner and outer id
// slices at every level. BuildVPTree must produce its nodes, radii and
// leaves bit for bit.
func buildRef(t *VPTree, ids []int, leafSize int, rng *rand.Rand) int32 {
	if len(ids) == 0 {
		return -1
	}
	if len(ids) <= leafSize {
		leaf := append([]int(nil), ids...)
		sort.Ints(leaf) // deterministic scan order
		t.nodes = append(t.nodes, vpNode{leaf: leaf})
		return int32(len(t.nodes) - 1)
	}
	// Random vantage point: swap it to the front, split the rest by
	// the median distance to it.
	vi := rng.Intn(len(ids))
	ids[0], ids[vi] = ids[vi], ids[0]
	vantage := ids[0]
	rest := ids[1:]
	dists := make([]float64, len(rest))
	for i, id := range rest {
		dists[i] = t.ptDist(id, vantage)
	}
	order := make([]int, len(rest))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return dists[order[a]] < dists[order[b]] })
	mid := len(order) / 2
	radius := dists[order[mid]]
	innerIDs := make([]int, 0, mid+1)
	outerIDs := make([]int, 0, len(order)-mid)
	for _, oi := range order {
		if dists[oi] <= radius {
			innerIDs = append(innerIDs, rest[oi])
		} else {
			outerIDs = append(outerIDs, rest[oi])
		}
	}
	node := vpNode{vantage: vantage, radius: radius}
	t.nodes = append(t.nodes, node)
	self := int32(len(t.nodes) - 1)
	inner := buildRef(t, innerIDs, leafSize, rng)
	outer := buildRef(t, outerIDs, leafSize, rng)
	t.nodes[self].inner = inner
	t.nodes[self].outer = outer
	return self
}

// centAtRef finds subspace m's centroid c by walking the widths of
// the subspaces before m: the oracle for centAt's direct offset.
func centAtRef(pq *ProductQuantizer, m, c int) []float64 {
	base := 0
	for i := 0; i < m; i++ {
		base += pq.subDim(i) * pq.k
	}
	w := pq.subDim(m)
	off := base + c*w
	return pq.cent[off : off+w]
}

// encodeRef encodes through kernel.SquaredDistance to each centroid
// centAtRef finds, lowest index on ties: the oracle for Encode's
// inline codebook scan.
func encodeRef(pq *ProductQuantizer, v []float64, code []byte) {
	for m := 0; m < pq.CodeLen(); m++ {
		sub := v[pq.offs[m]:pq.offs[m+1]]
		best, bestD := 0, math.Inf(1)
		for c := 0; c < pq.k; c++ {
			if d := kernel.SquaredDistance(sub, centAtRef(pq, m, c)); d < bestD {
				best, bestD = c, d
			}
		}
		code[m] = byte(best)
	}
}

// refTree builds the oracle tree over pts: the same store BuildVPTree
// fills (PQ codes through encodeRef), split by buildRef.
func refTree(t *testing.T, pts [][]float64, opt VPOptions) *VPTree {
	t.Helper()
	opt = opt.withDefaults()
	tree := &VPTree{dim: len(pts[0]), dead: make([]bool, len(pts)), live: len(pts)}
	if pq := opt.Quantizer; pq != nil {
		tree.codes = &codeStore{qz: pq, codes: make([]byte, len(pts)*pq.CodeLen())}
		for i, p := range pts {
			encodeRef(pq, p, tree.codes.at(i))
		}
	} else {
		blk, err := kernel.FeatureBlockFromRows(pts)
		if err != nil {
			t.Fatal(err)
		}
		tree.blk = blk
	}
	ids := make([]int, len(pts))
	for i := range ids {
		ids[i] = i
	}
	tree.root = buildRef(tree, ids, opt.LeafSize, rand.New(rand.NewSource(opt.Seed)))
	return tree
}

// checkBuildMatchesRef builds pts with BuildVPTree and with the oracle
// and fails on the first difference in codes, root, node links,
// vantages, radius bits or leaves. For PQ it also checks centAt
// against the offset walk for every centroid.
func checkBuildMatchesRef(t *testing.T, pts [][]float64, opt VPOptions) {
	t.Helper()
	got, err := BuildVPTree(pts, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := refTree(t, pts, opt)
	if pq := opt.Quantizer; pq != nil {
		for m := 0; m < pq.CodeLen(); m++ {
			for c := 0; c < pq.k; c++ {
				if a, b := pq.centAt(m, c), centAtRef(pq, m, c); &a[0] != &b[0] || len(a) != len(b) {
					t.Fatalf("centAt(%d, %d) addresses another centroid than the offset walk", m, c)
				}
			}
		}
	}
	if got.codes != nil && string(got.codes.codes) != string(want.codes.codes) {
		t.Fatal("codes differ from the reference encoder's")
	}
	if got.root != want.root || len(got.nodes) != len(want.nodes) {
		t.Fatalf("root %d of %d nodes, want root %d of %d", got.root, len(got.nodes), want.root, len(want.nodes))
	}
	for i, g := range got.nodes {
		w := want.nodes[i]
		if g.vantage != w.vantage || math.Float64bits(g.radius) != math.Float64bits(w.radius) ||
			g.inner != w.inner || g.outer != w.outer || (g.leaf == nil) != (w.leaf == nil) ||
			!slices.Equal(g.leaf, w.leaf) {
			t.Fatalf("node %d = %+v, want %+v", i, g, w)
		}
	}
}

// refPointSets are the point sets TestVPTreeBuildMatchesRef builds:
// general position, ties, coincident runs and special values.
func refPointSets() map[string][][]float64 {
	sets := make(map[string][][]float64)
	// 10 dims: with PQ's 3-dim subspaces the last one is 4 wide.
	sets["gaussian"] = randPts(21, 1500, 10)
	// An integer lattice: many points tie at the median distance.
	var lattice [][]float64
	for x := 0; x < 8; x++ {
		for y := 0; y < 8; y++ {
			for z := 0; z < 8; z++ {
				lattice = append(lattice, []float64{float64(x), float64(y), float64(z)})
			}
		}
	}
	sets["lattice"] = lattice
	// A 2,000-point coincident group spread among 3,000 others.
	var group [][]float64
	others := randPts(22, 3000, 9)
	witness := []float64{0.5, 0.5, 0, 0.5, 0.5, 0, 0.5, 0.5, 0}
	for i, p := range others {
		group = append(group, p)
		if i%3 != 0 {
			group = append(group, witness)
		}
	}
	sets["coincident-group"] = group
	same := make([][]float64, 300)
	for i := range same {
		same[i] = []float64{1, 2, 3}
	}
	sets["all-identical"] = same
	// One odd point ends a coincident run, so every coincidence scan
	// reads the whole set before it fails.
	odd := make([][]float64, 200)
	for i := range odd {
		odd[i] = []float64{4, 4, 4}
	}
	sets["odd-after-run"] = append(odd, []float64{4, 4, 5})
	// Signed zeros are == but not bit-equal; NaN is never ==; rows of
	// equal infinities are == but measure NaN from each other.
	inf, nan, negz := math.Inf(1), math.NaN(), math.Copysign(0, -1)
	var special [][]float64
	for i := 0; i < 60; i++ {
		special = append(special, []float64{0, negz, 1}, []float64{negz, 0, 1}, []float64{inf, 0, 0})
		if i%2 == 0 {
			special = append(special, []float64{nan, 1, 2}, []float64{-inf, 2, inf}, []float64{float64(i % 5), 1, 2})
		}
	}
	sets["special-values"] = special
	return sets
}

// TestVPTreeBuildMatchesRef: BuildVPTree reproduces the reference
// build byte for byte over every point set and leaf size, on float
// rows and on PQ codes.
func TestVPTreeBuildMatchesRef(t *testing.T) {
	for name, pts := range refPointSets() {
		blk, err := kernel.FeatureBlockFromRows(pts)
		if err != nil {
			t.Fatal(err)
		}
		pq, err := TrainProductQuantizer(blk, PQOptions{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, store := range []struct {
			name string
			qz   *ProductQuantizer
		}{{"none", nil}, {"pq", pq}} {
			for _, leaf := range []int{1, 2, 8, 33} {
				t.Run(fmt.Sprintf("%s/%s/leaf=%d", name, store.name, leaf), func(t *testing.T) {
					checkBuildMatchesRef(t, pts, VPOptions{LeafSize: leaf, Seed: 5, Quantizer: store.qz})
				})
			}
		}
	}
}

// fuzzCoord maps a fuzz byte to a small-integer coordinate, so that
// duplicates and distance ties are common, or to a special value.
func fuzzCoord(b byte) float64 {
	switch b {
	case 255:
		return math.NaN()
	case 254:
		return math.Inf(1)
	case 253:
		return math.Inf(-1)
	case 252:
		return math.Copysign(0, -1)
	}
	return float64(int(b%7) - 3)
}

// FuzzVPTreeBuild: over small-integer point sets of up to 256 points,
// any leaf size and seed, on float rows or PQ codes, BuildVPTree equals
// the reference build byte for byte.
func FuzzVPTreeBuild(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(2), uint8(0), false, int64(1))
	f.Add(bytes.Repeat([]byte{3, 3, 3}, 40), uint8(3), uint8(1), true, int64(7))
	f.Add(append(bytes.Repeat([]byte{5, 1}, 50), 6, 1), uint8(2), uint8(0), true, int64(3))
	f.Add(bytes.Repeat([]byte{0, 1, 2, 3, 4, 5, 6, 0, 0, 1}, 20), uint8(1), uint8(3), false, int64(2))
	f.Add(bytes.Repeat([]byte{254, 1, 1, 2}, 30), uint8(2), uint8(0), false, int64(4))
	f.Add([]byte{255, 0, 1, 255, 2, 3, 4, 5, 255, 6, 0, 0, 1, 1, 255, 2, 2, 3, 3, 252, 4, 4, 253, 5},
		uint8(1), uint8(0), false, int64(1))
	f.Fuzz(func(t *testing.T, data []byte, dimRaw, leafRaw uint8, pq bool, seed int64) {
		dim := 1 + int(dimRaw%4)
		n := min(len(data)/dim, 256)
		if n == 0 {
			return
		}
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = make([]float64, dim)
			for j := range pts[i] {
				pts[i][j] = fuzzCoord(data[i*dim+j])
			}
		}
		opt := VPOptions{LeafSize: 1 + int(leafRaw%8), Seed: seed}
		if pq {
			blk, err := kernel.FeatureBlockFromRows(pts)
			if err != nil {
				t.Fatal(err)
			}
			if opt.Quantizer, err = TrainProductQuantizer(blk, PQOptions{Seed: seed}); err != nil {
				t.Fatal(err)
			}
		}
		checkBuildMatchesRef(t, pts, opt)
	})
}
