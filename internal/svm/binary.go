package svm

import (
	"errors"
	"fmt"
	"math"

	"milvideo/internal/kernel"
)

// Binary-classifier errors.
var (
	ErrOneClassOnly = errors.New("svm: binary training needs both classes")
	ErrC            = errors.New("svm: C must be positive")
)

// BinaryOptions configures soft-margin C-SVM training.
type BinaryOptions struct {
	// C is the box constraint (soft-margin penalty).
	C float64
	// Kernel defaults to an RBF with the median-distance bandwidth.
	Kernel kernel.Kernel
	// Tol is the KKT stopping tolerance (default 1e-4).
	Tol float64
	// MaxIter caps SMO iterations (default 200·n, floor 20000).
	MaxIter int
}

// Binary is a trained two-class kernel SVM, the building block of the
// MI-SVM Multiple Instance learner (the paper's §2.1 reference [16]).
type Binary struct {
	kernel kernel.Kernel
	sv     [][]float64
	coef   []float64 // αᵢ·yᵢ for each support vector
	b      float64
	dim    int
	iters  int
}

// TrainBinary fits a C-SVM on (X, y) by Sequential Minimal
// Optimization with maximal-violating-pair working-set selection.
func TrainBinary(X [][]float64, y []bool, opt BinaryOptions) (*Binary, error) {
	n := len(X)
	if n == 0 {
		return nil, ErrNoData
	}
	if len(y) != n {
		return nil, fmt.Errorf("svm: %d labels for %d instances", len(y), n)
	}
	if opt.C <= 0 {
		return nil, fmt.Errorf("%w: got %v", ErrC, opt.C)
	}
	if err := checkInstances(X); err != nil {
		return nil, err
	}
	dim := len(X[0])
	pos, negs := 0, 0
	for _, yi := range y {
		if yi {
			pos++
		} else {
			negs++
		}
	}
	if pos == 0 || negs == 0 {
		return nil, ErrOneClassOnly
	}
	if opt.Kernel == nil {
		opt.Kernel = kernel.RBF{Sigma: kernel.MedianHeuristicSigma(X)}
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-4
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 200 * n
		if opt.MaxIter < 20000 {
			opt.MaxIter = 20000
		}
	}

	rows := newRowCache(opt.Kernel, X)
	diag, err := rows.diag()
	if err != nil {
		return nil, err
	}
	ys := make([]float64, n)
	for i, l := range y {
		if l {
			ys[i] = 1
		} else {
			ys[i] = -1
		}
	}

	// Dual: min ½αᵀQα − eᵀα, Q = y yᵀ ∘ K, 0 ≤ α ≤ C, yᵀα = 0.
	alpha := make([]float64, n)
	grad := make([]float64, n) // g = Qα − e; starts at −e
	for i := range grad {
		grad[i] = -1
	}

	iters := 0
	for ; iters < opt.MaxIter; iters++ {
		// Maximal violating pair.
		i, j := -1, -1
		gmax, gmin := math.Inf(-1), math.Inf(1)
		for k := 0; k < n; k++ {
			if (ys[k] > 0 && alpha[k] < opt.C-1e-12) || (ys[k] < 0 && alpha[k] > 1e-12) {
				if v := -ys[k] * grad[k]; v > gmax {
					gmax, i = v, k
				}
			}
			if (ys[k] < 0 && alpha[k] < opt.C-1e-12) || (ys[k] > 0 && alpha[k] > 1e-12) {
				if v := -ys[k] * grad[k]; v < gmin {
					gmin, j = v, k
				}
			}
		}
		if i < 0 || j < 0 || gmax-gmin <= opt.Tol {
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
		// Two-variable analytic step along the feasible direction.
		qii, qjj := diag[i], diag[j]
		qij := ys[i] * ys[j] * rowI[j]
		eta := qii + qjj - 2*qij
		if eta <= 1e-15 {
			eta = 1e-12
		}
		// δ in terms of α_i (with yᵀα = 0 preserved).
		delta := (-ys[i]*grad[i] + ys[j]*grad[j]) / eta
		oldAi, oldAj := alpha[i], alpha[j]
		ai := oldAi + ys[i]*delta
		aj := oldAj - ys[j]*delta
		// Clip to the box along the constraint line.
		sum := ys[i]*oldAi + ys[j]*oldAj
		if ai < 0 {
			ai = 0
		}
		if ai > opt.C {
			ai = opt.C
		}
		aj = ys[j] * (sum - ys[i]*ai)
		if aj < 0 {
			aj = 0
			ai = ys[i] * (sum - ys[j]*aj)
		}
		if aj > opt.C {
			aj = opt.C
			ai = ys[i] * (sum - ys[j]*aj)
		}
		if ai < -1e-12 || ai > opt.C+1e-12 {
			break // numerically stuck at a corner
		}
		dAi, dAj := ai-oldAi, aj-oldAj
		if math.Abs(dAi) < 1e-14 && math.Abs(dAj) < 1e-14 {
			break
		}
		alpha[i], alpha[j] = ai, aj
		// rowI[k] == gram[k][i] by kernel symmetry (bitwise: the eager
		// matrix mirrored the same value into both cells).
		for k := 0; k < n; k++ {
			grad[k] += ys[k] * ys[i] * rowI[k] * dAi
			grad[k] += ys[k] * ys[j] * rowJ[k] * dAj
		}
	}

	// b from the free support vectors (0 < α < C): y_k(f(x_k)) = 1
	// means b = y_k − Σ αᵢyᵢK(xᵢ,x_k) = −y_k·g_k… using g = Qα − e:
	// y_k·(Σ αᵢyᵢK_ik) = g_k·y_k + y_k ⇒ b = −y_k g_k averaged.
	free, nfree := 0.0, 0
	lo, hi := math.Inf(-1), math.Inf(1)
	for k := 0; k < n; k++ {
		v := -ys[k] * grad[k]
		switch {
		case alpha[k] > 1e-12 && alpha[k] < opt.C-1e-12:
			free += v
			nfree++
		case (ys[k] > 0 && alpha[k] <= 1e-12) || (ys[k] < 0 && alpha[k] >= opt.C-1e-12):
			// KKT gives b ≥ v here: a lower bound.
			if v > lo {
				lo = v
			}
		default:
			// And b ≤ v here: an upper bound.
			if v < hi {
				hi = v
			}
		}
	}
	var b float64
	if nfree > 0 {
		b = free / float64(nfree)
	} else {
		l, h := lo, hi
		if math.IsInf(l, -1) {
			l = h
		}
		if math.IsInf(h, 1) {
			h = l
		}
		b = (l + h) / 2
	}

	m := &Binary{kernel: opt.Kernel, b: b, dim: dim, iters: iters}
	for k := 0; k < n; k++ {
		if alpha[k] > 1e-12 {
			v := make([]float64, dim)
			copy(v, X[k])
			m.sv = append(m.sv, v)
			m.coef = append(m.coef, alpha[k]*ys[k])
		}
	}
	return m, nil
}

// Decision returns f(x) = Σ αᵢyᵢK(xᵢ,x) + b; positive predicts the
// true class.
func (m *Binary) Decision(x []float64) (float64, error) {
	if len(x) != m.dim {
		return 0, fmt.Errorf("svm: input dimension %d, want %d", len(x), m.dim)
	}
	s := m.b
	for i, v := range m.sv {
		s += m.coef[i] * m.kernel.Eval(v, x)
	}
	return s, nil
}

// Predict reports the predicted class of x.
func (m *Binary) Predict(x []float64) (bool, error) {
	d, err := m.Decision(x)
	return d >= 0, err
}

// NSupport returns the number of support vectors.
func (m *Binary) NSupport() int { return len(m.sv) }

// Iterations returns how many SMO steps training took.
func (m *Binary) Iterations() int { return m.iters }
