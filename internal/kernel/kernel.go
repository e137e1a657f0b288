// Package kernel provides the Mercer kernels used by the One-class
// SVM (paper §5.2, Eq. (5)–(6)) and a Gram-matrix helper.
//
// Note on Eq. (6): the paper prints K(u,v) = exp(‖u−v‖/2σ), which is
// not positive definite (it grows with distance). We implement the
// standard Gaussian RBF K(u,v) = exp(−‖u−v‖²/(2σ²)) that the paper's
// reference [18] (Schölkopf et al.) uses; DESIGN.md records the
// substitution.
package kernel

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// ErrDim is returned when kernel operands differ in dimension.
var ErrDim = errors.New("kernel: operand dimensions differ")

// Kernel is a positive-definite similarity function.
type Kernel interface {
	// Eval computes K(u, v). Implementations panic-free: dimension
	// mismatches return NaN and are caught by Matrix and the SVM
	// trainer up front.
	Eval(u, v []float64) float64
	// Name identifies the kernel in reports.
	Name() string
}

// RBF is the Gaussian radial basis function kernel with bandwidth
// Sigma: K(u,v) = exp(−‖u−v‖² / (2σ²)).
type RBF struct {
	Sigma float64
}

// Eval implements Kernel.
func (k RBF) Eval(u, v []float64) float64 {
	if len(u) != len(v) {
		return math.NaN()
	}
	return k.FromSquaredDist(SquaredDistance(u, v))
}

// FromSquaredDist evaluates the kernel from a precomputed squared
// Euclidean distance ‖u−v‖². Computing the distance with
// SquaredDistance and finishing with this method is bitwise identical
// to Eval.
func (k RBF) FromSquaredDist(d2 float64) float64 {
	s := k.Sigma
	if s <= 0 {
		s = 1
	}
	return math.Exp(-d2 / (2 * s * s))
}

// SquaredDistance returns ‖u−v‖², accumulating component differences
// in index order (the summation order every kernel and bandwidth
// heuristic in this package uses, so cached values interchange
// bitwise). Both operands must have the same length.
func SquaredDistance(u, v []float64) float64 {
	d := 0.0
	for i := range u {
		diff := u[i] - v[i]
		d += diff * diff
	}
	return d
}

// Name implements Kernel.
func (k RBF) Name() string { return fmt.Sprintf("rbf(σ=%g)", k.Sigma) }

// Linear is the inner-product kernel K(u,v) = u·v.
type Linear struct{}

// Eval implements Kernel.
func (Linear) Eval(u, v []float64) float64 {
	if len(u) != len(v) {
		return math.NaN()
	}
	s := 0.0
	for i := range u {
		s += u[i] * v[i]
	}
	return s
}

// Name implements Kernel.
func (Linear) Name() string { return "linear" }

// Poly is the polynomial kernel K(u,v) = (u·v + C)^Degree.
type Poly struct {
	Degree int
	C      float64
}

// Eval implements Kernel.
func (k Poly) Eval(u, v []float64) float64 {
	base := Linear{}.Eval(u, v)
	if math.IsNaN(base) {
		return base
	}
	deg := k.Degree
	if deg < 1 {
		deg = 2
	}
	return math.Pow(base+k.C, float64(deg))
}

// Name implements Kernel.
func (k Poly) Name() string { return fmt.Sprintf("poly(d=%d,c=%g)", k.Degree, k.C) }

// Matrix computes the Gram matrix K[i][j] = k(X[i], X[j]). It errors
// on ragged input rather than silently producing NaNs.
//
// Only the upper triangle is evaluated (k must be symmetric, which
// every Mercer kernel is) and rows are distributed over a worker pool
// sized by GOMAXPROCS. Each cell is written exactly once, so the
// result is identical to the serial computation.
func Matrix(k Kernel, X [][]float64) ([][]float64, error) {
	return matrixWorkers(k, X, runtime.GOMAXPROCS(0))
}

// matrixParallelMin is the matrix order below which the worker pool
// costs more than it saves.
const matrixParallelMin = 32

func matrixWorkers(k Kernel, X [][]float64, workers int) ([][]float64, error) {
	if len(X) == 0 {
		return nil, nil
	}
	d := len(X[0])
	for i, x := range X {
		if len(x) != d {
			return nil, fmt.Errorf("%w: row %d has %d, want %d", ErrDim, i, len(x), d)
		}
	}
	n := len(X)
	back := make([]float64, n*n)
	g := make([][]float64, n)
	for i := range g {
		g[i] = back[i*n : (i+1)*n : (i+1)*n]
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < matrixParallelMin {
		for i := range X {
			fillGramRow(k, X, g, i)
		}
		return g, nil
	}
	// Dynamic row assignment (upper-triangle rows shrink with i, so a
	// static split would load-balance poorly). Workers write disjoint
	// cells: row i's worker owns g[i][i:] and the mirror column
	// g[i:][i].
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				fillGramRow(k, X, g, i)
			}
		}()
	}
	wg.Wait()
	return g, nil
}

// fillGramRow computes the upper-triangle cells of row i and mirrors
// them into column i.
func fillGramRow(k Kernel, X [][]float64, g [][]float64, i int) {
	for j := i; j < len(X); j++ {
		v := k.Eval(X[i], X[j])
		g[i][j] = v
		g[j][i] = v
	}
}

// NearestNeighborSigma returns the median nearest-neighbor distance
// of the sample set — a local-scale RBF bandwidth. Unlike the global
// median pairwise distance, it stays small for multimodal data (e.g.
// event signatures whose spike lands at different window positions),
// so the decision surface hugs each mode instead of smearing across
// the modes' centroid. Returns 1 for degenerate inputs.
func NearestNeighborSigma(X [][]float64) float64 {
	var nn []float64
	for i := range X {
		best := math.Inf(1)
		for j := range X {
			if i == j || len(X[i]) != len(X[j]) {
				continue
			}
			if d := SquaredDistance(X[i], X[j]); d > 0 && d < best {
				best = d
			}
		}
		if !math.IsInf(best, 1) {
			nn = append(nn, math.Sqrt(best))
		}
	}
	return medianOrOne(nn)
}

// medianOrOne returns the median of vs (upper middle, matching the
// bandwidth heuristics' historical insertion-sort selection) or 1 for
// an empty slice. vs is modified.
func medianOrOne(vs []float64) float64 {
	if len(vs) == 0 {
		return 1
	}
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0 && vs[j] < vs[j-1]; j-- {
			vs[j], vs[j-1] = vs[j-1], vs[j]
		}
	}
	return vs[len(vs)/2]
}

// MedianHeuristicSigma returns the median pairwise distance of the
// sample set — the classic bandwidth heuristic for the RBF kernel. It
// returns 1 for degenerate inputs (fewer than two points or all
// points identical), a safe neutral bandwidth.
func MedianHeuristicSigma(X [][]float64) float64 {
	var dists []float64
	for i := 0; i < len(X); i++ {
		for j := i + 1; j < len(X); j++ {
			if len(X[i]) != len(X[j]) {
				continue
			}
			if d := SquaredDistance(X[i], X[j]); d > 0 {
				dists = append(dists, math.Sqrt(d))
			}
		}
	}
	return medianOrOne(dists)
}
