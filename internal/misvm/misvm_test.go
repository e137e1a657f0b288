package misvm

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"milvideo/internal/kernel"
	"milvideo/internal/mil"
	"milvideo/internal/window"
)

// milProblem: positive bags hold one instance near the concept plus
// noise; negative bags hold only noise.
func milProblem(rng *rand.Rand, nPos, nNeg, perBag int) []mil.Bag {
	var bags []mil.Bag
	id := 0
	noise := func() []float64 {
		return []float64{rng.Float64()*8 - 4, rng.Float64()*8 - 4}
	}
	concept := func() []float64 {
		return []float64{5 + rng.NormFloat64()*0.3, 5 + rng.NormFloat64()*0.3}
	}
	for i := 0; i < nPos; i++ {
		b := mil.Bag{ID: id, Label: mil.Positive}
		id++
		b.Instances = append(b.Instances, concept())
		for j := 1; j < perBag; j++ {
			b.Instances = append(b.Instances, noise())
		}
		bags = append(bags, b)
	}
	for i := 0; i < nNeg; i++ {
		b := mil.Bag{ID: id, Label: mil.Negative}
		id++
		for j := 0; j < perBag; j++ {
			b.Instances = append(b.Instances, noise())
		}
		bags = append(bags, b)
	}
	return bags
}

func TestMISVMLearnsConcept(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	bags := milProblem(rng, 10, 10, 3)
	m, err := Train(bags, Options{C: 2, Kernel: kernel.RBF{Sigma: 1.5}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Iterations < 1 {
		t.Fatal("no iterations")
	}
	hi, err := m.InstanceScore([]float64{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	lo, err := m.InstanceScore([]float64{-2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if hi <= lo {
		t.Fatalf("concept not separated: %v vs %v", hi, lo)
	}
	// Bag max rule: a bag with a concept instance outscores pure
	// noise.
	pb, ok, err := m.BagScore(mil.Bag{ID: 99, Instances: [][]float64{{0, 0}, {5, 5}}})
	if err != nil || !ok {
		t.Fatalf("pos bag: %v %v", ok, err)
	}
	nb, ok, err := m.BagScore(mil.Bag{ID: 98, Instances: [][]float64{{0, 0}, {-3, 2}}})
	if err != nil || !ok {
		t.Fatalf("neg bag: %v %v", ok, err)
	}
	if pb <= nb {
		t.Fatalf("bag ranking: %v vs %v", pb, nb)
	}
	// Empty bag: no evidence.
	if _, ok, err := m.BagScore(mil.Bag{ID: 97}); err != nil || ok {
		t.Fatalf("empty bag: %v %v", ok, err)
	}
}

func TestMISVMWitnessReselection(t *testing.T) {
	// Construct bags where the largest-norm instance is NOT the
	// concept instance, so the initial witness is wrong and the
	// alternation must move it.
	rng := rand.New(rand.NewSource(42))
	var bags []mil.Bag
	id := 0
	for i := 0; i < 8; i++ {
		b := mil.Bag{ID: id, Label: mil.Positive}
		id++
		// Concept lives at (2, 0) — modest norm.
		b.Instances = append(b.Instances, []float64{2 + rng.NormFloat64()*0.1, rng.NormFloat64() * 0.1})
		// Decoy with a large norm at a bag-specific direction.
		ang := float64(i)
		b.Instances = append(b.Instances, []float64{7 * math.Cos(ang), 7 * math.Sin(ang)})
		bags = append(bags, b)
	}
	for i := 0; i < 8; i++ {
		b := mil.Bag{ID: id, Label: mil.Negative}
		id++
		// Negatives sit exactly on the decoy ring, so the decoys are
		// inseparable from them and the first model must reject the
		// initial witnesses (greedy MI-SVM cannot escape separable
		// decoys — that failure mode is documented, not tested here).
		ang := float64(i)
		b.Instances = append(b.Instances, []float64{7 * math.Cos(ang), 7 * math.Sin(ang)})
		b.Instances = append(b.Instances, []float64{rng.NormFloat64() * 0.3, 4 + rng.NormFloat64()*0.3})
		bags = append(bags, b)
	}
	m, err := Train(bags, Options{C: 2, Kernel: kernel.RBF{Sigma: 1.2}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Iterations < 2 {
		t.Fatalf("witnesses never moved (%d iterations)", m.Iterations)
	}
	hi, _ := m.InstanceScore([]float64{2, 0})
	lo, _ := m.InstanceScore([]float64{0, 4})
	if hi <= lo {
		t.Fatalf("reselection failed: concept %v vs negative zone %v", hi, lo)
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, Options{}); !errors.Is(err, ErrNoPositiveBags) {
		t.Fatalf("empty: %v", err)
	}
	posOnly := []mil.Bag{{Label: mil.Positive, Instances: [][]float64{{1, 2}}}}
	if _, err := Train(posOnly, Options{}); !errors.Is(err, ErrNoNegatives) {
		t.Fatalf("no negatives: %v", err)
	}
}

func TestEngineRanking(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	quiet := func() []float64 {
		return []float64{rng.Float64() * 0.3, rng.Float64() * 0.3, rng.Float64() * 0.3}
	}
	spike := func() []float64 {
		return []float64{0.3, 3 + rng.NormFloat64()*0.2, 1}
	}
	var db []window.VS
	for i := 0; i < 16; i++ {
		vs := window.VS{Index: i, StartFrame: i * 15, EndFrame: i*15 + 10}
		if i%4 == 0 {
			vs.TSs = append(vs.TSs, window.TS{TrackID: 100 + i, Vectors: [][]float64{quiet(), spike(), quiet()}})
		}
		vs.TSs = append(vs.TSs, window.TS{TrackID: i, Vectors: [][]float64{quiet(), quiet(), quiet()}})
		db = append(db, vs)
	}
	labels := map[int]mil.Label{0: mil.Positive, 4: mil.Positive, 1: mil.Negative, 2: mil.Negative}
	e := Engine{Opt: Options{C: 2}}
	rank, err := e.Rank(db, labels)
	if err != nil {
		t.Fatal(err)
	}
	top := map[int]bool{}
	for _, i := range rank[:4] {
		top[db[i].Index] = true
	}
	// The unlabeled event VSs (8, 12) must rank in the top 4.
	if !top[8] || !top[12] {
		t.Fatalf("event VSs not found: %v", rank[:6])
	}
	if e.Name() == "" {
		t.Fatal("name")
	}
	// Fallback without labels: the §5.3 heuristic order, pinned.
	rank, err = e.Rank(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 8, 12, 4, 6, 9, 2, 3, 5, 10, 1, 11, 13, 7, 15, 14}
	if !slices.Equal(rank, want) {
		t.Fatalf("fallback rank %v, want %v", rank, want)
	}
}
