// Package misvm implements MI-SVM (Andrews, Tsochantaridis & Hofmann
// — the paper's §2.1 reference [16]): Multiple Instance Learning by
// alternating witness selection with supervised SVM training. Each
// positive bag nominates one witness instance; a binary C-SVM is
// trained on the witnesses against every instance of the negative
// bags; each positive bag then re-nominates the instance its decision
// function likes best, until the selection stabilizes.
//
// Together with internal/dd (EM-DD) this gives the repository all
// three MIL solver families the paper's literature review discusses,
// so the One-class SVM choice can be compared head to head
// (experiments E10).
package misvm

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"milvideo/internal/kernel"
	"milvideo/internal/mil"
	"milvideo/internal/retrieval"
	"milvideo/internal/svm"
	"milvideo/internal/window"
)

// Errors returned by the trainer.
var (
	ErrNoPositiveBags = errors.New("misvm: no positive bags")
	ErrNoNegatives    = errors.New("misvm: no negative instances")
)

// Options configures training.
type Options struct {
	// C is the binary SVM's soft-margin penalty (0 = 1).
	C float64
	// Kernel defaults to RBF with the median heuristic over the
	// initial training set.
	Kernel kernel.Kernel
	// MaxIters bounds the witness-reselection loop (0 = 15).
	MaxIters int
}

// Model is a trained MI-SVM.
type Model struct {
	svm *svm.Binary
	// Iterations is how many selection rounds ran.
	Iterations int
}

// Train runs the MI-SVM alternation on the labeled bags.
func Train(bags []mil.Bag, opt Options) (*Model, error) {
	if opt.C <= 0 {
		opt.C = 1
	}
	if opt.MaxIters <= 0 {
		opt.MaxIters = 15
	}
	var pos []mil.Bag
	var negX [][]float64
	for _, b := range bags {
		switch b.Label {
		case mil.Positive:
			if len(b.Instances) > 0 {
				pos = append(pos, b)
			}
		case mil.Negative:
			negX = append(negX, b.Instances...)
		}
	}
	if len(pos) == 0 {
		return nil, ErrNoPositiveBags
	}
	if len(negX) == 0 {
		return nil, ErrNoNegatives
	}

	// Initial witnesses: the most "eventful" instance of each bag
	// (largest squared norm), matching the §5.3 heuristic spirit.
	witness := make([]int, len(pos))
	for i, b := range pos {
		best, bestV := 0, math.Inf(-1)
		for j, inst := range b.Instances {
			v := 0.0
			for _, x := range inst {
				v += x * x
			}
			if v > bestV {
				best, bestV = j, v
			}
		}
		witness[i] = best
	}

	var model *svm.Binary
	iters := 0
	for ; iters < opt.MaxIters; iters++ {
		X := make([][]float64, 0, len(pos)+len(negX))
		y := make([]bool, 0, cap(X))
		for i, b := range pos {
			X = append(X, b.Instances[witness[i]])
			y = append(y, true)
		}
		X = append(X, negX...)
		for range negX {
			y = append(y, false)
		}
		m, err := svm.TrainBinary(X, y, svm.BinaryOptions{C: opt.C, Kernel: opt.Kernel})
		if err != nil {
			return nil, fmt.Errorf("misvm: iteration %d: %w", iters, err)
		}
		model = m

		changed := false
		for i, b := range pos {
			best, bestD := witness[i], math.Inf(-1)
			for j, inst := range b.Instances {
				d, err := m.Decision(inst)
				if err != nil {
					return nil, fmt.Errorf("misvm: bag %d: %w", b.ID, err)
				}
				if d > bestD {
					best, bestD = j, d
				}
			}
			if best != witness[i] {
				witness[i] = best
				changed = true
			}
		}
		if !changed {
			iters++
			break
		}
	}
	return &Model{svm: model, Iterations: iters}, nil
}

// InstanceScore returns the decision value of one instance.
func (m *Model) InstanceScore(x []float64) (float64, error) {
	return m.svm.Decision(x)
}

// BagScore scores a bag by its best instance (the MI-SVM max rule).
// ok is false for empty bags.
func (m *Model) BagScore(b mil.Bag) (score float64, ok bool, err error) {
	if len(b.Instances) == 0 {
		return 0, false, nil
	}
	best := math.Inf(-1)
	for i, inst := range b.Instances {
		d, err := m.svm.Decision(inst)
		if err != nil {
			return 0, false, fmt.Errorf("misvm: bag %d instance %d: %w", b.ID, i, err)
		}
		if d > best {
			best = d
		}
	}
	return best, true, nil
}

// Engine adapts MI-SVM to the retrieval framework, mirroring the
// MIL-OCSVM and EM-DD engines: heuristic fallback with no positive
// labels, bag-max ranking otherwise. Unlike the One-class engine it
// uses the negative bags as real supervision.
type Engine struct {
	Opt Options
}

// Name implements retrieval.Engine.
func (Engine) Name() string { return "MI-SVM" }

// Rank implements retrieval.Engine.
func (e Engine) Rank(db []window.VS, labels map[int]mil.Label) ([]int, error) {
	return e.RankOrder(db, labels, nil)
}

// RankOrder implements retrieval.OrderRanker.
func (e Engine) RankOrder(db []window.VS, labels map[int]mil.Label, stored func() []int) ([]int, error) {
	// Train needs a positive and a negative VS that hold a TS; without
	// both, rank heuristically before building any bag.
	if !retrieval.HasBag(db, labels, mil.Positive) || !retrieval.HasBag(db, labels, mil.Negative) {
		return retrieval.FallbackOrder(db, stored)
	}
	bags := make([]mil.Bag, len(db))
	for i, vs := range db {
		b := mil.Bag{ID: vs.Index, Label: labels[vs.Index]}
		for _, ts := range vs.TSs {
			b.Instances = append(b.Instances, ts.Flat())
		}
		bags[i] = b
	}
	m, err := Train(bags, e.Opt)
	if errors.Is(err, ErrNoPositiveBags) || errors.Is(err, ErrNoNegatives) {
		return retrieval.FallbackOrder(db, stored)
	}
	if err != nil {
		return nil, err
	}
	scores := make([]float64, len(db))
	for i := range db {
		s, ok, err := m.BagScore(bags[i])
		if err != nil {
			return nil, err
		}
		if !ok {
			s = math.Inf(-1)
		}
		scores[i] = s
	}
	idx := make([]int, len(db))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	return idx, nil
}
