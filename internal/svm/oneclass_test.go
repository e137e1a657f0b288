package svm

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"milvideo/internal/kernel"
)

// cluster draws n points from a Gaussian blob at (cx, cy).
func cluster(rng *rand.Rand, n int, cx, cy, sd float64) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = []float64{cx + rng.NormFloat64()*sd, cy + rng.NormFloat64()*sd}
	}
	return out
}

func TestSeparatesClusterFromOutliers(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	train := cluster(rng, 80, 0, 0, 1)
	m, err := TrainOneClass(train, Options{Nu: 0.1, Kernel: kernel.RBF{Sigma: 2}})
	if err != nil {
		t.Fatal(err)
	}
	// Points near the center are inside.
	in, err := m.Predict([]float64{0.1, -0.2})
	if err != nil || !in {
		t.Fatalf("center rejected: %v %v", in, err)
	}
	// Far outliers are outside.
	out, err := m.Predict([]float64{15, 15})
	if err != nil || out {
		t.Fatalf("outlier accepted: %v %v", out, err)
	}
	// Decision orders by centrality.
	dc, _ := m.Decision([]float64{0, 0})
	dm, _ := m.Decision([]float64{3, 3})
	df, _ := m.Decision([]float64{10, 10})
	if !(dc > dm && dm > df) {
		t.Fatalf("decision not monotone with distance: %v %v %v", dc, dm, df)
	}
}

func TestNuControlsOutlierFraction(t *testing.T) {
	// ν upper-bounds the fraction of training points with negative
	// decision values and lower-bounds the support-vector fraction
	// (Schölkopf Prop. 4). Allow slack for the equality-boundary
	// points.
	rng := rand.New(rand.NewSource(33))
	train := cluster(rng, 120, 5, 5, 1.5)
	for _, nu := range []float64{0.05, 0.2, 0.5} {
		m, err := TrainOneClass(train, Options{Nu: nu, Kernel: kernel.RBF{Sigma: 2}})
		if err != nil {
			t.Fatal(err)
		}
		neg := 0
		for _, x := range train {
			d, err := m.Decision(x)
			if err != nil {
				t.Fatal(err)
			}
			if d < -1e-9 {
				neg++
			}
		}
		frac := float64(neg) / float64(len(train))
		if frac > nu+0.05 {
			t.Errorf("nu=%v: outlier fraction %v exceeds bound", nu, frac)
		}
		svFrac := float64(m.NSupport()) / float64(len(train))
		if svFrac < nu-0.05 {
			t.Errorf("nu=%v: SV fraction %v below bound", nu, svFrac)
		}
		if m.Nu() != nu {
			t.Errorf("Nu() = %v", m.Nu())
		}
	}
}

func TestAlphaInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	train := cluster(rng, 60, 0, 0, 1)
	nu := 0.15
	m, err := TrainOneClass(train, Options{Nu: nu, Kernel: kernel.RBF{Sigma: 1.5}})
	if err != nil {
		t.Fatal(err)
	}
	// Σα over support vectors must be 1 (non-SVs have α = 0).
	sum := 0.0
	c := 1 / (nu * float64(len(train)))
	for _, a := range m.alpha {
		if a < -1e-12 || a > c+1e-9 {
			t.Fatalf("alpha out of box: %v (C=%v)", a, c)
		}
		sum += a
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("Σα = %v", sum)
	}
	if m.NSupport() == 0 || m.NSupport() > len(train) {
		t.Fatalf("NSupport: %d", m.NSupport())
	}
	if m.NBounded() > m.NSupport() {
		t.Fatalf("bounded %d > support %d", m.NBounded(), m.NSupport())
	}
	if m.Iterations() <= 0 {
		t.Fatal("no iterations recorded")
	}
	if m.Dim() != 2 {
		t.Fatalf("Dim: %d", m.Dim())
	}
}

func TestKKTConditionsAtSolution(t *testing.T) {
	// At optimality, g = Kα satisfies: α=0 ⇒ g ≥ ρ−tol; α=C ⇒ g ≤
	// ρ+tol; interior ⇒ g ≈ ρ.
	rng := rand.New(rand.NewSource(5))
	train := cluster(rng, 50, 2, -1, 1)
	nu := 0.2
	k := kernel.RBF{Sigma: 1.2}
	m, err := TrainOneClass(train, Options{Nu: nu, Kernel: k, Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild full alpha by matching support vectors to training rows.
	// (Training data had no duplicates with overwhelming probability.)
	alpha := make([]float64, len(train))
	for i, x := range train {
		for j, v := range m.sv {
			if x[0] == v[0] && x[1] == v[1] {
				alpha[i] = m.alpha[j]
			}
		}
	}
	c := 1 / (nu * float64(len(train)))
	g := make([]float64, len(train))
	for i := range train {
		for j := range train {
			g[i] += alpha[j] * k.Eval(train[i], train[j])
		}
	}
	rho := m.Rho()
	const tol = 1e-5
	for i := range train {
		switch {
		case alpha[i] <= 1e-12:
			if g[i] < rho-tol {
				t.Fatalf("KKT violated at zero α: g=%v rho=%v", g[i], rho)
			}
		case alpha[i] >= c-1e-12:
			if g[i] > rho+tol {
				t.Fatalf("KKT violated at bound α: g=%v rho=%v", g[i], rho)
			}
		default:
			if math.Abs(g[i]-rho) > tol {
				t.Fatalf("KKT violated at free α: g=%v rho=%v", g[i], rho)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	train := cluster(rng, 40, 0, 0, 1)
	a, err := TrainOneClass(train, Options{Nu: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainOneClass(train, Options{Nu: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.5, 0.5}
	da, _ := a.Decision(probe)
	db, _ := b.Decision(probe)
	if da != db {
		t.Fatalf("nondeterministic training: %v vs %v", da, db)
	}
}

func TestDefaultKernelMedianHeuristic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	train := cluster(rng, 30, 0, 0, 2)
	m, err := TrainOneClass(train, Options{Nu: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if in, _ := m.Predict([]float64{0, 0}); !in {
		t.Fatal("default kernel rejects the cluster center")
	}
}

func TestHighDimensionalData(t *testing.T) {
	// The paper chose One-class SVM for robustness to high dimensions;
	// sanity-check a 9-dim problem (the windowed TS dimension).
	rng := rand.New(rand.NewSource(44))
	train := make([][]float64, 60)
	for i := range train {
		row := make([]float64, 9)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		train[i] = row
	}
	m, err := TrainOneClass(train, Options{Nu: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	center := make([]float64, 9)
	far := make([]float64, 9)
	for j := range far {
		far[j] = 20
	}
	dc, _ := m.Decision(center)
	df, _ := m.Decision(far)
	if dc <= df {
		t.Fatalf("decision ordering wrong in 9-dim: %v vs %v", dc, df)
	}
}

func TestSingleInstanceTraining(t *testing.T) {
	// RF's first iteration can produce a single relevant TS; training
	// must handle n = 1 (with ν = 1 the only feasible value ≤ 1/(νn)).
	m, err := TrainOneClass([][]float64{{1, 2}}, Options{Nu: 1, Kernel: kernel.RBF{Sigma: 1}})
	if err != nil {
		t.Fatal(err)
	}
	dSelf, _ := m.Decision([]float64{1, 2})
	dFar, _ := m.Decision([]float64{9, 9})
	if dSelf <= dFar {
		t.Fatalf("self should score highest: %v vs %v", dSelf, dFar)
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := TrainOneClass(nil, Options{Nu: 0.5}); !errors.Is(err, ErrNoData) {
		t.Fatalf("empty: %v", err)
	}
	X := [][]float64{{1, 2}, {3, 4}}
	for _, nu := range []float64{0, -0.1, 1.5} {
		if _, err := TrainOneClass(X, Options{Nu: nu}); !errors.Is(err, ErrNu) {
			t.Fatalf("nu=%v: %v", nu, err)
		}
	}
	m, err := TrainOneClass(X, Options{Nu: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Decision([]float64{1}); err == nil {
		t.Fatal("bad probe dimension accepted")
	}
	if _, err := m.Predict([]float64{1, 2, 3}); err == nil {
		t.Fatal("bad probe dimension accepted")
	}
}

// TestTrainErrorsTyped: both solvers wrap a malformed instance in
// ErrInstance and a NaN kernel value in ErrKernelNaN, so callers can
// tell bad input from a kernel that broke down on finite input. The
// overflow rows are finite, but their squared distances are +Inf, so
// the default RBF's median-heuristic bandwidth is +Inf and every
// off-diagonal kernel value is Inf/Inf = NaN.
func TestTrainErrorsTyped(t *testing.T) {
	for _, tc := range []struct {
		name string
		X    [][]float64
		want error
	}{
		{"zero-dimensional", [][]float64{{}, {}}, ErrInstance},
		{"ragged", [][]float64{{1, 2}, {3}}, ErrInstance},
		{"NaN component", [][]float64{{1, 1}, {math.NaN(), 1}}, ErrInstance},
		{"infinite component", [][]float64{{1, 1}, {1, math.Inf(-1)}}, ErrInstance},
		{"overflowing distances", [][]float64{{1e200, 0}, {-1e200, 0}, {0, 1e200}}, ErrKernelNaN},
	} {
		if _, err := TrainOneClass(tc.X, Options{Nu: 0.5}); !errors.Is(err, tc.want) {
			t.Errorf("%s: TrainOneClass err %v, want %v", tc.name, err, tc.want)
		}
		y := make([]bool, len(tc.X))
		y[0] = true
		if _, err := TrainBinary(tc.X, y, BinaryOptions{C: 1}); !errors.Is(err, tc.want) {
			t.Errorf("%s: TrainBinary err %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestLinearAndPolyKernelsTrain(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	train := cluster(rng, 40, 3, 3, 0.5)
	for _, k := range []kernel.Kernel{kernel.Linear{}, kernel.Poly{Degree: 2, C: 1}} {
		m, err := TrainOneClass(train, Options{Nu: 0.2, Kernel: k})
		if err != nil {
			t.Fatalf("%s: %v", k.Name(), err)
		}
		if m.NSupport() == 0 {
			t.Fatalf("%s: no support vectors", k.Name())
		}
	}
}

func TestDuplicatePointsHandled(t *testing.T) {
	// Identical training points make the gram matrix singular in the
	// flat direction; SMO must still terminate.
	X := [][]float64{{1, 1}, {1, 1}, {1, 1}, {2, 2}}
	m, err := TrainOneClass(X, Options{Nu: 0.5, Kernel: kernel.RBF{Sigma: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if in, _ := m.Predict([]float64{1, 1}); !in {
		t.Fatal("duplicate cluster rejected")
	}
}
