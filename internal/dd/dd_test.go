package dd

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"milvideo/internal/mil"
	"milvideo/internal/window"
)

// milProblem builds the classic DD test bed: positive bags hold one
// instance near the concept point plus scattered noise; negative bags
// hold only noise.
func milProblem(rng *rand.Rand, nPos, nNeg, perBag int, concept []float64) []mil.Bag {
	var bags []mil.Bag
	id := 0
	noise := func() []float64 {
		out := make([]float64, len(concept))
		for i := range out {
			out[i] = rng.Float64()*8 - 4
		}
		return out
	}
	target := func() []float64 {
		out := make([]float64, len(concept))
		for i := range out {
			out[i] = concept[i] + rng.NormFloat64()*0.2
		}
		return out
	}
	for i := 0; i < nPos; i++ {
		b := mil.Bag{ID: id, Label: mil.Positive}
		id++
		b.Instances = append(b.Instances, target())
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

func TestEMDDFindsConcept(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	concept := []float64{2.5, -1.5}
	bags := milProblem(rng, 12, 12, 3, concept)
	c, err := Train(bags, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := math.Hypot(c.Target[0]-concept[0], c.Target[1]-concept[1])
	if d > 0.5 {
		t.Fatalf("concept at %v, want near %v (dist %v)", c.Target, concept, d)
	}
	// Instances at the concept score high, noise scores low.
	pc, err := c.InstanceProb(concept)
	if err != nil {
		t.Fatal(err)
	}
	pn, err := c.InstanceProb([]float64{-3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if pc < 0.5 || pn > 0.2 || pc <= pn {
		t.Fatalf("probs: concept %v noise %v", pc, pn)
	}
}

func TestBagProbNoisyOr(t *testing.T) {
	c := &Concept{Target: []float64{0, 0}, Scales: []float64{1, 1}}
	// Empty bag: probability 0.
	p, err := c.BagProb(nil)
	if err != nil || p != 0 {
		t.Fatalf("empty: %v %v", p, err)
	}
	// A bag holding the target: probability ≈ 1.
	p, err = c.BagProb([][]float64{{0, 0}, {9, 9}})
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.99 {
		t.Fatalf("target bag: %v", p)
	}
	// More instances never lower the noisy-or.
	p1, _ := c.BagProb([][]float64{{1, 1}})
	p2, _ := c.BagProb([][]float64{{1, 1}, {2, 2}})
	if p2 < p1 {
		t.Fatalf("noisy-or decreased: %v → %v", p1, p2)
	}
	if _, err := c.BagProb([][]float64{{1}}); err == nil {
		t.Fatal("bad dim accepted")
	}
}

func TestGradientMatchesFiniteDifferences(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dim := 3
	c := &Concept{Target: []float64{0.5, -0.3, 1.1}, Scales: []float64{1.2, 0.8, 1.0}}
	selected := [][]float64{
		{1, 0, 0.5},
		{0.2, -1, 1.5},
	}
	neg := []mil.Bag{{Label: mil.Negative, Instances: [][]float64{
		{2, 1, -0.5},
		{-1.5, 0.7, 2.2},
	}}}
	gt, gs := mGradient(c, selected, neg)
	const h = 1e-6
	for d := 0; d < dim; d++ {
		// Target component.
		cp := &Concept{Target: append([]float64(nil), c.Target...), Scales: append([]float64(nil), c.Scales...)}
		cp.Target[d] += h
		cm := &Concept{Target: append([]float64(nil), c.Target...), Scales: append([]float64(nil), c.Scales...)}
		cm.Target[d] -= h
		fd := (mObjective(cp, selected, neg) - mObjective(cm, selected, neg)) / (2 * h)
		if math.Abs(fd-gt[d]) > 1e-4*(1+math.Abs(fd)) {
			t.Fatalf("∂L/∂t[%d]: analytic %v vs fd %v", d, gt[d], fd)
		}
		// Scale component.
		cp = &Concept{Target: append([]float64(nil), c.Target...), Scales: append([]float64(nil), c.Scales...)}
		cp.Scales[d] += h
		cm = &Concept{Target: append([]float64(nil), c.Target...), Scales: append([]float64(nil), c.Scales...)}
		cm.Scales[d] -= h
		fd = (mObjective(cp, selected, neg) - mObjective(cm, selected, neg)) / (2 * h)
		if math.Abs(fd-gs[d]) > 1e-4*(1+math.Abs(fd)) {
			t.Fatalf("∂L/∂s[%d]: analytic %v vs fd %v", d, gs[d], fd)
		}
	}
	_ = rng
}

func TestScalesLearnIrrelevantDimensions(t *testing.T) {
	// Dimension 1 is pure noise for positives; EM-DD should
	// down-weight it relative to the informative dimension 0.
	rng := rand.New(rand.NewSource(11))
	var bags []mil.Bag
	id := 0
	for i := 0; i < 14; i++ {
		b := mil.Bag{ID: id, Label: mil.Positive}
		id++
		b.Instances = append(b.Instances, []float64{3 + rng.NormFloat64()*0.1, rng.Float64()*8 - 4})
		b.Instances = append(b.Instances, []float64{rng.Float64()*8 - 4, rng.Float64()*8 - 4})
		bags = append(bags, b)
	}
	for i := 0; i < 14; i++ {
		b := mil.Bag{ID: id, Label: mil.Negative}
		id++
		for j := 0; j < 2; j++ {
			b.Instances = append(b.Instances, []float64{rng.Float64() * 2, rng.Float64()*8 - 4})
		}
		bags = append(bags, b)
	}
	c, err := Train(bags, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.Target[0]-3) > 0.6 {
		t.Fatalf("informative dim not found: %v", c.Target)
	}
	if c.Scales[1] >= c.Scales[0] {
		t.Fatalf("noise dimension not down-weighted: scales %v", c.Scales)
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, Options{}); !errors.Is(err, ErrNoPositiveBags) {
		t.Fatalf("empty: %v", err)
	}
	neg := []mil.Bag{{Label: mil.Negative, Instances: [][]float64{{1, 2}}}}
	if _, err := Train(neg, Options{}); !errors.Is(err, ErrNoPositiveBags) {
		t.Fatalf("only negatives: %v", err)
	}
	ragged := []mil.Bag{
		{Label: mil.Positive, Instances: [][]float64{{1, 2}}},
		{Label: mil.Positive, Instances: [][]float64{{1}}},
	}
	if _, err := Train(ragged, Options{}); !errors.Is(err, ErrDim) {
		t.Fatalf("ragged: %v", err)
	}
	// An empty positive bag is skipped, not fatal.
	ok := []mil.Bag{
		{Label: mil.Positive},
		{Label: mil.Positive, Instances: [][]float64{{1, 2}}},
	}
	if _, err := Train(ok, Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineRanking(t *testing.T) {
	// Database with one "event" VS pattern; label a couple, EM-DD
	// must rank the unlabeled event VS above noise.
	rng := rand.New(rand.NewSource(5))
	noiseTS := func(id int) window.TS {
		return window.TS{TrackID: id, Vectors: [][]float64{
			{rng.Float64() * 0.3}, {rng.Float64() * 0.3}, {rng.Float64() * 0.3},
		}}
	}
	eventTS := func(id int) window.TS {
		return window.TS{TrackID: id, Vectors: [][]float64{
			{rng.Float64() * 0.3}, {3 + rng.NormFloat64()*0.1}, {rng.Float64() * 0.3},
		}}
	}
	var db []window.VS
	for i := 0; i < 20; i++ {
		vs := window.VS{Index: i, StartFrame: i * 15, EndFrame: i*15 + 10}
		if i%5 == 0 {
			vs.TSs = append(vs.TSs, eventTS(100+i))
		}
		vs.TSs = append(vs.TSs, noiseTS(i))
		db = append(db, vs)
	}
	labels := map[int]mil.Label{
		0: mil.Positive, 5: mil.Positive,
		1: mil.Negative, 2: mil.Negative,
	}
	e := Engine{}
	rank, err := e.Rank(db, labels)
	if err != nil {
		t.Fatal(err)
	}
	// The unlabeled event VSs (10, 15) must appear in the top 4.
	top := map[int]bool{}
	for _, i := range rank[:4] {
		top[db[i].Index] = true
	}
	if !top[10] || !top[15] {
		t.Fatalf("event VSs not on top: %v", rank[:6])
	}
	if e.Name() == "" {
		t.Fatal("name")
	}
	// No positive labels: the fallback is the §5.3 heuristic order,
	// pinned.
	rank, err = e.Rank(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{10, 15, 5, 0, 2, 6, 11, 9, 18, 1, 19, 14, 17, 8, 7, 16, 4, 3, 12, 13}
	if !slices.Equal(rank, want) {
		t.Fatalf("fallback rank %v, want %v", rank, want)
	}
}

func TestEngineEmptyVSsLast(t *testing.T) {
	db := []window.VS{
		{Index: 0, TSs: []window.TS{{TrackID: 1, Vectors: [][]float64{{3}, {3}, {3}}}}},
		{Index: 1}, // empty
	}
	labels := map[int]mil.Label{0: mil.Positive}
	rank, err := (Engine{}).Rank(db, labels)
	if err != nil {
		t.Fatal(err)
	}
	if rank[0] != 0 || rank[1] != 1 {
		t.Fatalf("rank: %v", rank)
	}
}
