package index

import (
	"math"
	"math/rand"
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
