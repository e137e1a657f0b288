package index

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"milvideo/internal/kernel"
)

// sortedOracle sorts a copy of nbs by (Dist, Idx) with the reflection
// sort, independently of the code under test.
func sortedOracle(nbs []Neighbor) []Neighbor {
	out := append([]Neighbor(nil), nbs...)
	sort.Slice(out, func(a, b int) bool {
		if out[a].Dist != out[b].Dist {
			return out[a].Dist < out[b].Dist
		}
		return out[a].Idx < out[b].Idx
	})
	return out
}

// tieHeavy draws n neighbors with unique indices in shuffled order and
// distances from a handful of values, so most comparisons tie on Dist.
func tieHeavy(rng *rand.Rand, n int) []Neighbor {
	out := make([]Neighbor, n)
	for i, idx := range rng.Perm(n) {
		out[i] = Neighbor{Idx: idx, Dist: float64(rng.Intn(4))}
	}
	return out
}

// TestSelectK: for every k the selected prefix is exactly the k
// smallest by (Dist, Idx), with the k-th at s[k-1].
func TestSelectK(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		in := tieHeavy(rng, n)
		if trial%2 == 1 {
			for i := range in {
				in[i].Dist = rng.NormFloat64()
			}
		}
		want := sortedOracle(in)
		for k := 1; k <= n; k++ {
			s := append([]Neighbor(nil), in...)
			selectK(s, k)
			if s[k-1] != want[k-1] {
				t.Fatalf("n=%d k=%d: s[k-1] = %+v, want %+v", n, k, s[k-1], want[k-1])
			}
			got := sortedOracle(s[:k])
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d k=%d: prefix %d = %+v, want %+v", n, k, i, got[i], want[i])
				}
			}
		}
	}
}

// TestKBestMatchesSort: whatever the offer order, the buffer keeps
// exactly the k best points offered and reports the k-th's distance
// (+Inf when fewer than k arrived); it is cut back before reaching 2k,
// and every cut leaves the exact k-th of the points offered so far.
func TestKBestMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(60)
		in := tieHeavy(rng, n)
		k := 1 + rng.Intn(20)
		b := kBest{k: k}
		for i, nb := range in {
			if b.push(nb.Idx, nb.Dist) {
				// A select has just run: the k-th it reports is the
				// exact k-th of everything offered so far.
				if want := sortedOracle(in[:i+1])[k-1]; b.kth != want {
					t.Fatalf("trial %d k=%d after %d offers: k-th %+v, want %+v", trial, k, i+1, b.kth, want)
				}
			}
			if len(b.buf) >= 2*k {
				t.Fatalf("trial %d k=%d: buffer holds %d points, never cut back", trial, k, len(b.buf))
			}
		}
		got, kth := b.result()
		want := sortedOracle(in)
		if len(want) > k {
			want = want[:k]
		}
		got = sortedOracle(got)
		if len(got) != len(want) {
			t.Fatalf("trial %d k=%d: %d results, want %d", trial, k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d k=%d: result %d = %+v, want %+v", trial, k, i, got[i], want[i])
			}
		}
		wantKth := math.Inf(1)
		if len(want) == k {
			wantKth = want[k-1].Dist
		}
		if kth != wantKth {
			t.Fatalf("trial %d k=%d: kth %v, want %v", trial, k, kth, wantKth)
		}
	}
}

// liveOracle is brute force over a tree's live points in the tree's
// own metric (ADC through the codes when quantized), sorted by
// (Dist, Idx) and cut to k.
func liveOracle(t *VPTree, q []float64, k int) []Neighbor {
	s := &vpSearch{t: t, q: q}
	if t.codes != nil {
		s.tab = make([]float64, t.codes.qz.TabLen())
		t.codes.qz.FillADC(q, s.tab)
	}
	var all []Neighbor
	for i := 0; i < t.Len(); i++ {
		if !t.dead[i] {
			all = append(all, Neighbor{Idx: i, Dist: s.dist(i)})
		}
	}
	all = sortedOracle(all)
	if k < len(all) {
		all = all[:k]
	}
	return all
}

// latticePts draws n points on a small integer lattice: many exact
// duplicates and exact distance ties, the cases (Dist, Idx) order
// exists for.
func latticePts(seed int64, n, dim int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, dim)
		for j := range pts[i] {
			pts[i][j] = float64(rng.Intn(3))
		}
	}
	return pts
}

// repeatedPts draws n points with repetition from distinct random
// ones: exact duplicates, hence exact distance ties, in general
// position.
func repeatedPts(seed int64, n, distinct, dim int) [][]float64 {
	base := randPts(seed, distinct, dim)
	rng := rand.New(rand.NewSource(seed + 1))
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = base[rng.Intn(distinct)]
	}
	return pts
}

// TestVPTreeKBestExact pins the heap-free search to brute force: ties
// broken by index, duplicate points, tombstoned points and vantages,
// a finite bound at or above the true k-th, k ∈ {1, LeafSize, live},
// float and PQ-coded trees over a 9-dim lattice and over repeated
// 3-dim points.
func TestVPTreeKBestExact(t *testing.T) {
	const n, leaf = 300, 8
	lattice := latticePts(3, n, 9)
	repeated := repeatedPts(5, n, 40, 3)
	for _, tc := range []struct {
		pts     [][]float64
		queries [][]float64
	}{
		{lattice, append(latticePts(4, 6, 9), lattice[0], lattice[n/2])},
		{repeated, append(randPts(6, 6, 3), repeated[0], repeated[n/2])},
	} {
		testKBestExact(t, tc.pts, tc.queries, leaf)
	}
}

// TestVPTreeCollinearTies pins the rounding-safe prune against brute
// force on integer lattices with a wide range, where a query, a vantage
// and the point tying the k-th are often collinear: the far-side test
// then compares d ± tau with a radius it equals in real arithmetic, and
// without the rounding margin the search could return the tie's
// higher-index twin. The two table cases are shrunk failures of the
// unwidened test; the sweep draws more such inputs.
func TestVPTreeCollinearTies(t *testing.T) {
	type latticeCase struct {
		seed int64
		pts  [][]float64
	}
	cases := []latticeCase{
		// Query (1,1), k = 2: (2,2) and (0,2) tie at √2.
		{39, [][]float64{{1, 1}, {2, 2}, {5, 5}, {0, 2}, {5, 3}, {2, 6}}},
		// Query (1,4,2), k = 2: (2,3,2) and (2,5,2) tie at √2.
		{2, [][]float64{{2, 3, 2}, {5, 0, 2}, {4, 2, 0}, {2, 5, 2}, {5, 2, 1}, {1, 4, 2}}},
	}
	for seed := int64(0); seed < 50; seed++ {
		cases = append(cases, latticeCase{seed, wideLatticePts(seed, 8+int(seed)%40, 2+int(seed%2))})
	}
	for ci, tc := range cases {
		tree, err := BuildVPTree(tc.pts, VPOptions{LeafSize: 1, Seed: tc.seed})
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range tc.pts {
			for k := 1; k <= len(tc.pts); k++ {
				want := liveOracle(tree, q, k)
				got, _ := tree.knnSorted(q, k, math.Inf(1))
				if len(got) != len(want) {
					t.Fatalf("case %d q=%d k=%d: %d results, want %d", ci, qi, k, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("case %d q=%d k=%d: result %d = %+v, want %+v", ci, qi, k, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// testKBestExact runs TestVPTreeKBestExact's checks over one point
// set.
func testKBestExact(t *testing.T, pts, queries [][]float64, leaf int) {
	t.Helper()
	blk, err := kernel.FeatureBlockFromRows(pts)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := TrainProductQuantizer(blk, PQOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := len(pts)
	for _, qz := range []*ProductQuantizer{nil, pq} {
		tree, err := BuildVPTree(pts, VPOptions{LeafSize: leaf, Quantizer: qz})
		if err != nil {
			t.Fatal(err)
		}
		for step, del := range [][]int{nil, {0, 7, 8, n / 2, n/2 + 1, n - 1}} {
			for _, id := range del {
				tree.Delete(id)
			}
			// Tombstone every vantage on the second pass too: they keep
			// routing but must never be returned.
			if step == 1 {
				for _, nd := range tree.nodes {
					if nd.leaf == nil {
						tree.Delete(nd.vantage)
					}
				}
			}
			live := tree.Live()
			for qi, q := range queries {
				for _, k := range []int{1, leaf, live} {
					want := liveOracle(tree, q, k)
					kth := want[len(want)-1].Dist
					for _, bound := range []float64{math.Inf(1), kth, kth + 0.5} {
						got, _ := tree.knnSorted(q, k, bound)
						if len(got) != len(want) {
							t.Fatalf("quant=%v step %d q=%d k=%d bound=%v: %d results, want %d",
								qz != nil, step, qi, k, bound, len(got), len(want))
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("quant=%v step %d q=%d k=%d bound=%v: result %d = %+v, want %+v",
									qz != nil, step, qi, k, bound, i, got[i], want[i])
							}
						}
					}
					unsorted, gotKth, _ := tree.knn(q, k, math.Inf(1), NewScratch())
					if len(unsorted) != len(want) || gotKth != kth {
						t.Fatalf("quant=%v step %d q=%d k=%d: unsorted search %d results, kth %v; want %d, %v",
							qz != nil, step, qi, k, len(unsorted), gotKth, len(want), kth)
					}
				}
			}
		}
	}
}

// TestCandidatesKth: the first probe runs before any shared threshold
// exists, so its kth equals the k-th distance of the sorted KNN the
// same probe would get (k = c + 16). A later probe may be cut
// short by the threshold and report +Inf, but a finite kth still
// upper-bounds its sorted search's k-th — the contract the shard scout
// relies on. A probe that cannot be answered reports +Inf.
func TestCandidatesKth(t *testing.T) {
	db := synthVSs(6, 120)
	const c = 20
	probes := [][]float64{db[3].TSs[0].Flat(), db[40].TSs[0].Flat(), {1, 2}, db[99].TSs[0].Flat()}
	bi, err := Build(db, KindVPTree, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, kth, _, err := bi.CandidatesOver(db, probes, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range probes {
		sorted, _ := bi.vp.KNN(q, c+16)
		want := math.Inf(1)
		if len(sorted) == c+16 {
			want = sorted[c+15].Dist
		}
		switch {
		case i == 0 && kth[i] != want:
			t.Fatalf("first probe: kth %v, sorted search says %v", kth[i], want)
		case kth[i] < want:
			t.Fatalf("probe %d: kth %v under the sorted search's %v", i, kth[i], want)
		}
	}
	if !math.IsInf(kth[2], 1) {
		t.Fatalf("dimension-mismatched probe got kth %v", kth[2])
	}
}

// TestScratchReuseAcrossIndexes: one Scratch carried across BagIndexes
// of different bag counts and stores, in both directions, returns what
// a fresh scratch returns — the dense per-bag buffer and the ADC table
// grow on demand and the per-bag buffer is fully reset after every
// pass. Several goroutines do it at once over
// the same indexes (run under -race).
func TestScratchReuseAcrossIndexes(t *testing.T) {
	type fixture struct {
		bi     *BagIndex
		probes [][]float64
	}
	var fx []fixture
	for i, n := range []int{30, 200, 5, 90} {
		db := synthVSs(int64(10+i), n)
		for _, quant := range []QuantKind{QuantNone, QuantPQ} {
			bi, err := Build(db, KindVPTree, Options{Quant: quant})
			if err != nil {
				t.Fatal(err)
			}
			fx = append(fx, fixture{bi, [][]float64{db[0].TSs[0].Flat(), db[n-1].TSs[0].Flat()}})
		}
	}
	type answer struct {
		hits []BagHit
		kth  []float64
	}
	want := make([]answer, len(fx))
	for i, f := range fx {
		hits, kth, _ := f.bi.candidatesLocked(f.probes, 12, nil, NewScratch())
		want[i] = answer{hits, kth}
	}
	check := func(sc *Scratch, i int) {
		hits, kth, _ := fx[i].bi.candidatesLocked(fx[i].probes, 12, nil, sc)
		if len(hits) != len(want[i].hits) {
			t.Errorf("fixture %d: %d hits with a reused scratch, %d fresh", i, len(hits), len(want[i].hits))
			return
		}
		for j := range hits {
			if hits[j] != want[i].hits[j] {
				t.Errorf("fixture %d: hit %d = %+v reused, %+v fresh", i, j, hits[j], want[i].hits[j])
				return
			}
		}
		for j := range kth {
			if kth[j] != want[i].kth[j] {
				t.Errorf("fixture %d: kth %d = %v reused, %v fresh", i, j, kth[j], want[i].kth[j])
				return
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sc := NewScratch()
			for round := 0; round < 3; round++ {
				for i := range fx {
					// Alternate directions so the scratch meets both a
					// larger and a smaller index than its last one.
					if (g+round)%2 == 1 {
						i = len(fx) - 1 - i
					}
					check(sc, i)
				}
			}
		}(g)
	}
	wg.Wait()
}

// fuzzTable holds the 64 fixed points FuzzKNNExact builds its sets
// from: 32 in general position and 32 on a 7-wide integer lattice,
// whose exactly collinear triples exercise the prune's rounding margin.
// Sets repeat table points, so ties abound.
var fuzzTable = append(randPts(64, 32, 3), wideLatticePts(65, 32, 3)...)

// wideLatticePts draws n points with integer coordinates in [0, 7).
func wideLatticePts(seed int64, n, dim int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, dim)
		for j := range pts[i] {
			pts[i][j] = float64(rng.Intn(7))
		}
	}
	return pts
}

// FuzzKNNExact: over arbitrary point sets drawn with repetition from
// fuzzTable, arbitrary tombstones, leaf sizes, k and bounds at or above
// the true k-th, the VP-tree search equals brute force.
func FuzzKNNExact(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(3), uint8(2), uint8(0), false)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1}, uint8(1), uint8(1), uint8(5), true)
	f.Add([]byte{9, 9, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7}, uint8(8), uint8(4), uint8(1), true)
	f.Fuzz(func(t *testing.T, data []byte, kRaw, leafRaw, delRaw uint8, bounded bool) {
		n := len(data)
		if n < 2 || n > 512 {
			return
		}
		pts := make([][]float64, n)
		for i, b := range data {
			pts[i] = fuzzTable[b%64]
		}
		tree, err := BuildVPTree(pts, VPOptions{LeafSize: 1 + int(leafRaw%8)})
		if err != nil {
			t.Fatal(err)
		}
		if delRaw > 0 {
			for i := 0; i < n-1; i += int(delRaw) {
				tree.Delete(i)
			}
		}
		k := 1 + int(kRaw)%tree.Live()
		for _, q := range [][]float64{pts[0], pts[n-1], fuzzTable[int(kRaw)%64], {0.1, -0.2, 0.3}} {
			want := liveOracle(tree, q, k)
			bound := math.Inf(1)
			if bounded {
				bound = want[len(want)-1].Dist
			}
			got, _ := tree.knnSorted(q, k, bound)
			if len(got) != len(want) {
				t.Fatalf("k=%d bound=%v: %d results, want %d", k, bound, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("k=%d bound=%v: result %d = %+v, want %+v", k, bound, i, got[i], want[i])
				}
			}
		}
	})
}
