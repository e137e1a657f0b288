package svm

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"milvideo/internal/kernel"
)

// TestRowCacheEquivalence: the lazily computed rows and the diagonal
// are bitwise the eager Gram matrix, a row is computed only on its
// first touch, and a row served twice is the same buffer.
func TestRowCacheEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	X := append(cluster(rng, 60, 0, 0, 1), cluster(rng, 15, 4, 4, 0.7)...)
	k := kernel.RBF{Sigma: 1.5}
	gram, err := kernel.Matrix(k, X)
	if err != nil {
		t.Fatal(err)
	}
	c := newRowCache(k, X)
	diag, err := c.diag()
	if err != nil {
		t.Fatal(err)
	}
	for i := range X {
		if math.Float64bits(diag[i]) != math.Float64bits(gram[i][i]) {
			t.Fatalf("diag[%d] = %v, Gram %v", i, diag[i], gram[i][i])
		}
	}
	for _, i := range []int{3, 70, 3} {
		row, err := c.row(i)
		if err != nil {
			t.Fatal(err)
		}
		for j := range X {
			if math.Float64bits(row[j]) != math.Float64bits(gram[i][j]) {
				t.Fatalf("row %d col %d = %v, Gram %v", i, j, row[j], gram[i][j])
			}
		}
	}
	computed := 0
	for _, r := range c.rows {
		if r != nil {
			computed++
		}
	}
	if computed != 2 {
		t.Fatalf("%d rows computed after touching 2", computed)
	}
	a, _ := c.row(70)
	b, _ := c.row(70)
	if &a[0] != &b[0] {
		t.Fatal("a cached row was recomputed")
	}
}

// nanOffDiagonal is finite on the diagonal and NaN elsewhere: a kernel
// that breaks down on some pairs only.
type nanOffDiagonal struct{}

func (nanOffDiagonal) Eval(u, v []float64) float64 {
	if u[0] == v[0] && u[1] == v[1] {
		return 1
	}
	return math.NaN()
}

func (nanOffDiagonal) Name() string { return "nan-off-diagonal" }

// TestSolverRowsValidation: a NaN kernel value fails the row or
// diagonal that produced it with ErrKernelNaN, a failed row is not
// kept, and both trainers return the error instead of a model.
func TestSolverRowsValidation(t *testing.T) {
	X := [][]float64{{0, 0}, {1, 1}, {2, 0}}
	c := newRowCache(nanOffDiagonal{}, X)
	if _, err := c.diag(); err != nil {
		t.Fatalf("finite diagonal rejected: %v", err)
	}
	if _, err := c.row(1); !errors.Is(err, ErrKernelNaN) {
		t.Fatalf("NaN row: err %v, want ErrKernelNaN", err)
	}
	if c.rows[1] != nil {
		t.Fatal("failed row was cached")
	}
	if _, err := newRowCache(kernel.RBF{Sigma: math.NaN()}, X).diag(); !errors.Is(err, ErrKernelNaN) {
		t.Fatalf("NaN diagonal: err %v, want ErrKernelNaN", err)
	}
	if _, err := TrainOneClass(X, Options{Nu: 0.5, Kernel: nanOffDiagonal{}}); !errors.Is(err, ErrKernelNaN) {
		t.Fatalf("TrainOneClass over a NaN kernel: err %v, want ErrKernelNaN", err)
	}
	if _, err := TrainBinary(X, []bool{true, false, true}, BinaryOptions{C: 1, Kernel: nanOffDiagonal{}}); !errors.Is(err, ErrKernelNaN) {
		t.Fatalf("TrainBinary over a NaN kernel: err %v, want ErrKernelNaN", err)
	}
}
