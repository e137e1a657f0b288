package svm

import (
	"fmt"
	"math"

	"milvideo/internal/kernel"
)

// rowCache serves Gram-matrix rows to the SMO solvers. Rows are
// computed lazily on first use and kept for the rest of the solve, so
// a solve that converges after touching a fraction of the training set
// never pays for the full O(n²) kernel evaluation.
//
// The kernel must be symmetric (K(u,v) == K(v,u) bitwise), which holds
// for every Mercer kernel in the kernel package: row i then doubles as
// column i, exactly as the eagerly mirrored Gram matrix did.
type rowCache struct {
	k    kernel.Kernel
	X    [][]float64
	rows [][]float64 // rows[i] non-nil once computed
}

// newRowCache returns a lazy cache over the training set.
func newRowCache(k kernel.Kernel, X [][]float64) *rowCache {
	return &rowCache{k: k, X: X, rows: make([][]float64, len(X))}
}

// row returns Gram row i (K(xᵢ, ·) over the training set).
func (c *rowCache) row(i int) ([]float64, error) {
	if r := c.rows[i]; r != nil {
		return r, nil
	}
	buf := make([]float64, len(c.X))
	xi := c.X[i]
	for j, xj := range c.X {
		v := c.k.Eval(xi, xj)
		if math.IsNaN(v) {
			return nil, fmt.Errorf("%w at (%d,%d)", ErrKernelNaN, i, j)
		}
		buf[j] = v
	}
	c.rows[i] = buf
	return buf, nil
}

// diag returns the Gram diagonal, which every SMO iteration reads.
func (c *rowCache) diag() ([]float64, error) {
	d := make([]float64, len(c.X))
	for i, xi := range c.X {
		v := c.k.Eval(xi, xi)
		if math.IsNaN(v) {
			return nil, fmt.Errorf("%w at (%d,%d)", ErrKernelNaN, i, i)
		}
		d[i] = v
	}
	return d, nil
}
