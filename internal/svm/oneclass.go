// Package svm implements the One-class ν-SVM of Schölkopf et al.
// (the paper's reference [18] and its §5.2 learning core) from
// scratch. The quadratic dual
//
//	min ½ Σᵢⱼ αᵢαⱼK(xᵢ,xⱼ)   s.t.  0 ≤ αᵢ ≤ 1/(νn),  Σᵢαᵢ = 1
//
// is solved by Sequential Minimal Optimization: repeatedly pick the
// maximally KKT-violating pair and optimize it analytically, keeping
// the equality constraint satisfied. The decision function is
// f(x) = Σᵢ αᵢK(xᵢ,x) − ρ, positive inside the learned support region.
//
// ν (the paper's δ, Eq. (9)) upper-bounds the fraction of training
// points treated as outliers and lower-bounds the fraction of support
// vectors.
package svm

import (
	"errors"
	"fmt"
	"math"

	"milvideo/internal/kernel"
)

// Errors returned by the trainers.
var (
	ErrNoData = errors.New("svm: no training data")
	ErrNu     = errors.New("svm: nu must lie in (0, 1]")
	// ErrInstance wraps every malformed training instance: zero
	// dimensions, a dimension other than the first instance's, or a
	// non-finite component.
	ErrInstance = errors.New("svm: malformed instance")
	// ErrKernelNaN is returned when the kernel evaluates to NaN on
	// finite instances, as an RBF does when squared distances
	// overflow and the median-heuristic bandwidth turns infinite.
	ErrKernelNaN = errors.New("svm: kernel produced NaN")
)

// Options configures training.
type Options struct {
	// Nu is the outlier-fraction parameter ν ∈ (0, 1].
	Nu float64
	// Kernel defaults to an RBF with the median-distance bandwidth.
	Kernel kernel.Kernel
	// Tol is the KKT violation tolerance (default 1e-6).
	Tol float64
	// MaxIter caps SMO iterations (default 100·n², generous for the
	// problem sizes here).
	MaxIter int
}

// OneClass is a trained one-class model.
type OneClass struct {
	kernel  kernel.Kernel
	sv      [][]float64 // support vectors (αᵢ > 0)
	alpha   []float64   // their coefficients
	rho     float64
	dim     int
	nTrain  int
	nu      float64
	iters   int
	bounded int // support vectors at the upper bound (the "outliers")
}

// TrainOneClass fits the model on X (each row one instance).
func TrainOneClass(X [][]float64, opt Options) (*OneClass, error) {
	n := len(X)
	if n == 0 {
		return nil, ErrNoData
	}
	if opt.Nu <= 0 || opt.Nu > 1 {
		return nil, fmt.Errorf("%w: got %v", ErrNu, opt.Nu)
	}
	if err := checkInstances(X); err != nil {
		return nil, err
	}
	dim := len(X[0])
	if opt.Kernel == nil {
		opt.Kernel = kernel.RBF{Sigma: kernel.MedianHeuristicSigma(X)}
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-6
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 100 * n * n
		if opt.MaxIter < 10000 {
			opt.MaxIter = 10000
		}
	}

	rows := newRowCache(opt.Kernel, X)
	diag, err := rows.diag()
	if err != nil {
		return nil, err
	}

	c := 1 / (opt.Nu * float64(n)) // upper box bound
	// Initialization per Schölkopf: the first ⌊νn⌋ points at the
	// bound, one fractional point, rest zero; Σα = 1 exactly.
	alpha := make([]float64, n)
	remaining := 1.0
	for i := 0; i < n && remaining > 0; i++ {
		a := math.Min(c, remaining)
		alpha[i] = a
		remaining -= a
	}

	// Gradient gᵢ = (Kα)ᵢ, accumulated row by row over the nonzero
	// coefficients (row j supplies column j by kernel symmetry), so
	// only the ⌊νn⌋+1 initialized rows are ever evaluated.
	g := make([]float64, n)
	for j := 0; j < n; j++ {
		if alpha[j] == 0 {
			continue
		}
		rowJ, err := rows.row(j)
		if err != nil {
			return nil, err
		}
		aj := alpha[j]
		for i := 0; i < n; i++ {
			g[i] += rowJ[i] * aj
		}
	}

	iters := 0
	for ; iters < opt.MaxIter; iters++ {
		// Working-set selection: i = argmin g over α < C (can grow),
		// j = argmax g over α > 0 (can shrink). KKT-satisfied when
		// g[j] − g[i] ≤ tol.
		i, j := -1, -1
		gi, gj := math.Inf(1), math.Inf(-1)
		for k := 0; k < n; k++ {
			if alpha[k] < c-1e-15 && g[k] < gi {
				gi, i = g[k], k
			}
			if alpha[k] > 1e-15 && g[k] > gj {
				gj, j = g[k], k
			}
		}
		if i < 0 || j < 0 || i == j || gj-gi <= opt.Tol {
			break
		}
		rowI, err := rows.row(i)
		if err != nil {
			return nil, err
		}
		rowJ, err := rows.row(j)
		if err != nil {
			return nil, err
		}
		// Optimize along e_i − e_j: Δobj(t) = ½ηt² + (gᵢ−gⱼ)t with
		// η = Kᵢᵢ + Kⱼⱼ − 2Kᵢⱼ ≥ 0.
		eta := diag[i] + diag[j] - 2*rowI[j]
		var t float64
		if eta > 1e-15 {
			t = (gj - gi) / eta
		} else {
			t = math.Inf(1) // flat direction: move to the box edge
		}
		if lim := c - alpha[i]; t > lim {
			t = lim
		}
		if lim := alpha[j]; t > lim {
			t = lim
		}
		if t <= 0 {
			break
		}
		alpha[i] += t
		alpha[j] -= t
		for k := 0; k < n; k++ {
			g[k] += t * (rowI[k] - rowJ[k])
		}
	}

	// ρ: average gradient over the free support vectors; when none
	// exist, the midpoint of the feasible interval.
	var rho float64
	free, nfree := 0.0, 0
	lower, upper := math.Inf(-1), math.Inf(1)
	bounded := 0
	for k := 0; k < n; k++ {
		switch {
		case alpha[k] <= 1e-12:
			if g[k] < upper {
				upper = g[k]
			}
		case alpha[k] >= c-1e-12:
			bounded++
			if g[k] > lower {
				lower = g[k]
			}
		default:
			free += g[k]
			nfree++
		}
	}
	if nfree > 0 {
		rho = free / float64(nfree)
	} else {
		lo, hi := lower, upper
		if math.IsInf(lo, -1) {
			lo = hi
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		rho = (lo + hi) / 2
	}

	m := &OneClass{
		kernel:  opt.Kernel,
		rho:     rho,
		dim:     dim,
		nTrain:  n,
		nu:      opt.Nu,
		iters:   iters,
		bounded: bounded,
	}
	for k := 0; k < n; k++ {
		if alpha[k] > 1e-12 {
			v := make([]float64, dim)
			copy(v, X[k])
			m.sv = append(m.sv, v)
			m.alpha = append(m.alpha, alpha[k])
		}
	}
	return m, nil
}

// Decision returns f(x) = Σᵢ αᵢK(xᵢ,x) − ρ: positive inside the
// learned region, negative outside, with magnitude acting as a
// confidence score (the retrieval engine ranks by it).
func (m *OneClass) Decision(x []float64) (float64, error) {
	if len(x) != m.dim {
		return 0, fmt.Errorf("svm: input dimension %d, want %d", len(x), m.dim)
	}
	s := 0.0
	for i, v := range m.sv {
		s += m.alpha[i] * m.kernel.Eval(v, x)
	}
	return s - m.rho, nil
}

// Predict reports whether x falls inside the learned support region.
func (m *OneClass) Predict(x []float64) (bool, error) {
	d, err := m.Decision(x)
	return d >= 0, err
}

// NSupport returns the number of support vectors.
func (m *OneClass) NSupport() int { return len(m.sv) }

// NBounded returns the number of support vectors at the upper bound —
// the training points the model treats as outliers.
func (m *OneClass) NBounded() int { return m.bounded }

// Rho returns the learned offset ρ.
func (m *OneClass) Rho() float64 { return m.rho }

// Iterations returns how many SMO steps training took.
func (m *OneClass) Iterations() int { return m.iters }

// Nu returns the training ν.
func (m *OneClass) Nu() float64 { return m.nu }

// Dim returns the instance dimensionality.
func (m *OneClass) Dim() int { return m.dim }

// checkInstances validates a non-empty training set: every instance
// has the first one's nonzero dimension and only finite components.
func checkInstances(X [][]float64) error {
	dim := len(X[0])
	if dim == 0 {
		return fmt.Errorf("%w: zero-dimensional", ErrInstance)
	}
	for i, x := range X {
		if len(x) != dim {
			return fmt.Errorf("%w: instance %d has dimension %d, want %d", ErrInstance, i, len(x), dim)
		}
		for j, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: instance %d component %d is not finite", ErrInstance, i, j)
			}
		}
	}
	return nil
}
