package kernel

import (
	"math"
	"math/rand"
	"testing"
)

func randVectors(rng *rand.Rand, n, d int) [][]float64 {
	X := make([][]float64, n)
	for i := range X {
		X[i] = make([]float64, d)
		for j := range X[i] {
			X[i][j] = rng.NormFloat64()
		}
	}
	return X
}

// TestMatrixWorkersDeterminism: the parallel Gram computation must be
// bitwise identical to the serial one for any worker count.
func TestMatrixWorkersDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	X := randVectors(rng, 40, 6) // above matrixParallelMin
	k := RBF{Sigma: 1.3}
	serial, err := matrixWorkers(k, X, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 16} {
		par, err := matrixWorkers(k, X, w)
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial {
			for j := range serial[i] {
				if math.Float64bits(serial[i][j]) != math.Float64bits(par[i][j]) {
					t.Fatalf("workers=%d: G[%d][%d] differs", w, i, j)
				}
			}
		}
	}
}

// TestMatrixSymmetricMirror: mirrored cells must be the same value
// (each is written once from the upper-triangle evaluation).
func TestMatrixSymmetricMirror(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	X := randVectors(rng, 35, 5)
	for _, k := range []Kernel{RBF{Sigma: 0.8}, Linear{}, Poly{Degree: 3, C: 1}} {
		g, err := Matrix(k, X)
		if err != nil {
			t.Fatal(err)
		}
		for i := range g {
			for j := range g[i] {
				if math.Float64bits(g[i][j]) != math.Float64bits(g[j][i]) {
					t.Fatalf("%s: G[%d][%d] != G[%d][%d]", k.Name(), i, j, j, i)
				}
			}
		}
	}
}

// TestRBFFromSquaredDistIdentity: Eval must equal
// FromSquaredDist(SquaredDistance(u,v)) bitwise.
func TestRBFFromSquaredDistIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	X := randVectors(rng, 20, 9)
	for _, sigma := range []float64{0.1, 1, 7.5, 0 /* degenerate */} {
		k := RBF{Sigma: sigma}
		for i := range X {
			for j := range X {
				a := k.Eval(X[i], X[j])
				b := k.FromSquaredDist(SquaredDistance(X[i], X[j]))
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("sigma=%v: Eval != FromSquaredDist at (%d,%d)", sigma, i, j)
				}
			}
		}
	}
}
