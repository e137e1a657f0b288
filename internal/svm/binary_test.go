package svm

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"milvideo/internal/kernel"
)

// twoBlobs draws a linearly separable two-class problem.
func twoBlobs(rng *rand.Rand, n int, gap float64) (X [][]float64, y []bool) {
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			X = append(X, []float64{gap + rng.NormFloat64(), rng.NormFloat64()})
			y = append(y, true)
		} else {
			X = append(X, []float64{-gap + rng.NormFloat64(), rng.NormFloat64()})
			y = append(y, false)
		}
	}
	return X, y
}

func TestBinarySeparatesBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	X, y := twoBlobs(rng, 80, 4)
	m, err := TrainBinary(X, y, BinaryOptions{C: 1, Kernel: kernel.RBF{Sigma: 2}})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range X {
		p, err := m.Predict(X[i])
		if err != nil {
			t.Fatal(err)
		}
		if p == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(X)); acc < 0.97 {
		t.Fatalf("training accuracy %v", acc)
	}
	// Generalizes to fresh draws.
	Xt, yt := twoBlobs(rng, 100, 4)
	correct = 0
	for i := range Xt {
		p, _ := m.Predict(Xt[i])
		if p == yt[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(Xt)); acc < 0.95 {
		t.Fatalf("test accuracy %v", acc)
	}
	if m.NSupport() == 0 || m.Iterations() == 0 {
		t.Fatalf("sv=%d iters=%d", m.NSupport(), m.Iterations())
	}
}

func TestBinaryNonlinearXOR(t *testing.T) {
	// XOR pattern: only a nonlinear kernel solves it.
	var X [][]float64
	var y []bool
	rng := rand.New(rand.NewSource(52))
	for i := 0; i < 120; i++ {
		a := rng.Float64()*2 - 1
		b := rng.Float64()*2 - 1
		X = append(X, []float64{a, b})
		y = append(y, (a > 0) == (b > 0))
	}
	m, err := TrainBinary(X, y, BinaryOptions{C: 10, Kernel: kernel.RBF{Sigma: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range X {
		p, _ := m.Predict(X[i])
		if p == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(X)); acc < 0.9 {
		t.Fatalf("XOR accuracy %v", acc)
	}
}

func TestBinaryKKTAtSolution(t *testing.T) {
	// Verify the decision function satisfies soft-margin KKT within
	// tolerance: free SVs sit on the margin |y·f| ≈ 1.
	rng := rand.New(rand.NewSource(53))
	X, y := twoBlobs(rng, 60, 2.2)
	c := 1.0
	k := kernel.RBF{Sigma: 1.5}
	m, err := TrainBinary(X, y, BinaryOptions{C: c, Kernel: k, Tol: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	// Recover α·y per training point by matching support vectors.
	for i := range X {
		var coef float64
		for j, sv := range m.sv {
			if sv[0] == X[i][0] && sv[1] == X[i][1] {
				coef = m.coef[j]
			}
		}
		f, err := m.Decision(X[i])
		if err != nil {
			t.Fatal(err)
		}
		yi := -1.0
		if y[i] {
			yi = 1
		}
		a := coef * yi // = α
		const slack = 2e-3
		switch {
		case a <= 1e-9: // non-SV: margin satisfied
			if yi*f < 1-slack {
				t.Fatalf("non-SV inside margin: y·f=%v", yi*f)
			}
		case a >= c-1e-9: // bounded: inside or on margin
			if yi*f > 1+slack {
				t.Fatalf("bounded SV outside margin: y·f=%v", yi*f)
			}
		default: // free: on the margin
			if math.Abs(yi*f-1) > 5e-3 {
				t.Fatalf("free SV off margin: y·f=%v", yi*f)
			}
		}
	}
}

func TestBinaryDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	X, y := twoBlobs(rng, 40, 3)
	a, err := TrainBinary(X, y, BinaryOptions{C: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainBinary(X, y, BinaryOptions{C: 1})
	if err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.3, -0.2}
	da, _ := a.Decision(probe)
	db, _ := b.Decision(probe)
	if da != db {
		t.Fatalf("nondeterministic: %v vs %v", da, db)
	}
}

func TestBinaryErrors(t *testing.T) {
	if _, err := TrainBinary(nil, nil, BinaryOptions{C: 1}); !errors.Is(err, ErrNoData) {
		t.Fatalf("empty: %v", err)
	}
	X := [][]float64{{1, 2}, {3, 4}}
	if _, err := TrainBinary(X, []bool{true}, BinaryOptions{C: 1}); err == nil {
		t.Fatal("label mismatch accepted")
	}
	if _, err := TrainBinary(X, []bool{true, false}, BinaryOptions{C: 0}); !errors.Is(err, ErrC) {
		t.Fatalf("bad C: %v", err)
	}
	if _, err := TrainBinary(X, []bool{true, true}, BinaryOptions{C: 1}); !errors.Is(err, ErrOneClassOnly) {
		t.Fatalf("one class: %v", err)
	}
	m, err := TrainBinary(X, []bool{true, false}, BinaryOptions{C: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Decision([]float64{1}); err == nil {
		t.Fatal("bad probe dim accepted")
	}
}

func TestBinaryClassImbalance(t *testing.T) {
	// Heavily imbalanced but separable data must still classify the
	// minority class (the MI-SVM regime: few witnesses vs many
	// negative instances).
	rng := rand.New(rand.NewSource(55))
	var X [][]float64
	var y []bool
	for i := 0; i < 8; i++ {
		X = append(X, []float64{5 + rng.NormFloat64()*0.3, rng.NormFloat64() * 0.3})
		y = append(y, true)
	}
	for i := 0; i < 90; i++ {
		X = append(X, []float64{rng.NormFloat64(), rng.NormFloat64()})
		y = append(y, false)
	}
	m, err := TrainBinary(X, y, BinaryOptions{C: 5, Kernel: kernel.RBF{Sigma: 1.5}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		p, _ := m.Predict(X[i])
		if !p {
			t.Fatalf("minority instance %d misclassified", i)
		}
	}
}
