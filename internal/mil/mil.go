// Package mil formalizes the paper's Multiple Instance Learning
// mapping (§1, §5.1): a Video Sequence is a bag, its Trajectory
// Sequences are instances, the user's relevance feedback labels bags,
// and instance labels remain latent. Equations (3)–(4) define the bag
// semantics — a bag is positive iff at least one instance is — and
// Eq. (9) converts the bag-level evidence into the One-class SVM's
// outlier ratio δ = 1 − (h/H + z).
//
// The Learner trains a One-class SVM on all instances of positively
// labeled bags with ν = δ and scores unseen bags by their maximum
// instance decision value, which is exactly the paper's learning and
// retrieval mechanism (§5.2–5.3).
package mil

import (
	"errors"
	"fmt"

	"milvideo/internal/kernel"
	"milvideo/internal/svm"
)

// Label is a bag's relevance-feedback label.
type Label int

// Bag labels. Unlabeled bags have not been shown to the user yet.
const (
	Unlabeled Label = iota
	Negative
	Positive
)

// String implements fmt.Stringer.
func (l Label) String() string {
	switch l {
	case Negative:
		return "irrelevant"
	case Positive:
		return "relevant"
	default:
		return "unlabeled"
	}
}

// Bag is a MIL bag: a labeled set of instance vectors.
type Bag struct {
	// ID identifies the bag (the VS index in the video database).
	ID int
	// Label is the bag's relevance-feedback label.
	Label Label
	// Instances are the contained instance vectors (flattened TSs);
	// all bags in a dataset share instance dimensionality.
	Instances [][]float64
	// Keys optionally identify each instance (track IDs); len must
	// match Instances when present.
	Keys []int
}

// BagLabel computes Eq. (3)–(4): the bag label induced by instance
// labels — positive iff any instance is positive.
func BagLabel(instanceLabels []bool) bool {
	for _, l := range instanceLabels {
		if l {
			return true
		}
	}
	return false
}

// OutlierRatio computes the paper's Eq. (9): δ = 1 − (h/H + z), the
// expected fraction of "irrelevant" instances inside the training set
// assembled from h relevant bags holding H instances in total. The
// result is clamped to (0, 1] since the SVM's ν must be a valid
// outlier fraction: δ below the floor means "essentially no outliers"
// and δ above 1 cannot occur for h ≥ 1.
func OutlierRatio(h, H int, z float64) (float64, error) {
	if h <= 0 || H <= 0 {
		return 0, fmt.Errorf("mil: invalid counts h=%d H=%d", h, H)
	}
	if h > H {
		return 0, fmt.Errorf("mil: h=%d exceeds H=%d", h, H)
	}
	d := 1 - (float64(h)/float64(H) + z)
	const floor = 0.01
	if d < floor {
		d = floor
	}
	if d > 1 {
		d = 1
	}
	return d, nil
}

// Errors returned by the learner.
var (
	ErrNoPositiveBags = errors.New("mil: no positively labeled bags")
	ErrDim            = errors.New("mil: inconsistent instance dimensions")
)

// Options configures the learner.
type Options struct {
	// Z is Eq. (9)'s adjustment constant; the paper found z = 0.05
	// works well.
	Z float64
	// Kernel is passed to the One-class SVM (nil → RBF with median
	// heuristic bandwidth).
	Kernel kernel.Kernel
	// NuOverride, when in (0, 1], replaces the Eq. (9) ν entirely
	// (used by the z-sweep ablation's extreme points).
	NuOverride float64
}

// DefaultOptions returns the paper's settings.
func DefaultOptions() Options { return Options{Z: 0.05} }

// Learner is a trained MIL model.
type Learner struct {
	model *svm.OneClass
	// TrainingBags is h, TrainingInstances is H, Delta the ν used.
	TrainingBags, TrainingInstances int
	Delta                           float64
}

// Train builds the training set from the positively labeled bags —
// every instance of every positive bag, per §5.3 — computes
// δ = 1 − (h/H + z) and fits the One-class SVM with ν = δ.
func Train(bags []Bag, opt Options) (*Learner, error) {
	var X [][]float64
	h := 0
	dim := -1
	for _, b := range bags {
		if b.Label != Positive {
			continue
		}
		if len(b.Instances) == 0 {
			continue // an empty positive bag contributes nothing
		}
		h++
		for _, inst := range b.Instances {
			if dim == -1 {
				dim = len(inst)
			} else if len(inst) != dim {
				return nil, fmt.Errorf("%w: %d vs %d in bag %d", ErrDim, len(inst), dim, b.ID)
			}
			X = append(X, inst)
		}
	}
	if h == 0 {
		return nil, ErrNoPositiveBags
	}
	H := len(X)
	delta, err := OutlierRatio(h, H, opt.Z)
	if err != nil {
		return nil, err
	}
	if opt.NuOverride > 0 && opt.NuOverride <= 1 {
		delta = opt.NuOverride
	}
	k := opt.Kernel
	if k == nil {
		// Event signatures are multimodal in the windowed TS space
		// (the spike may land at any sampling position), so the
		// bandwidth must track the local mode scale, not the global
		// spread — otherwise points *between* the modes (moderate,
		// uninteresting trajectories) tie with or outscore the events
		// themselves. A third of the median nearest-neighbor distance
		// keeps every mode a tight island even when the training set
		// is so small that each instance is its own mode; the decision
		// value then ranks candidates by distance to the nearest
		// learned signature, which is the behaviour retrieval needs.
		k = kernel.RBF{Sigma: kernel.NearestNeighborSigma(X) / 3}
	}
	m, err := svm.TrainOneClass(X, svm.Options{Nu: delta, Kernel: k})
	if err != nil {
		return nil, fmt.Errorf("mil: training failed: %w", err)
	}
	return &Learner{model: m, TrainingBags: h, TrainingInstances: H, Delta: delta}, nil
}

// InstanceScore returns the SVM decision value of one instance.
func (l *Learner) InstanceScore(x []float64) (float64, error) {
	return l.model.Decision(x)
}

// BagScore scores a bag by its best instance — the MIL max rule that
// mirrors Eq. (3): one relevant instance makes the bag relevant. ok
// is false for empty bags, which have no evidence either way.
func (l *Learner) BagScore(b Bag) (score float64, ok bool, err error) {
	if len(b.Instances) == 0 {
		return 0, false, nil
	}
	best := 0.0
	for i, inst := range b.Instances {
		d, err := l.model.Decision(inst)
		if err != nil {
			return 0, false, fmt.Errorf("mil: bag %d instance %d: %w", b.ID, i, err)
		}
		if i == 0 || d > best {
			best = d
		}
	}
	return best, true, nil
}

// InstanceLabels predicts the latent instance labels of a bag: an
// instance is relevant when the model places it inside the learned
// region.
func (l *Learner) InstanceLabels(b Bag) ([]bool, error) {
	out := make([]bool, len(b.Instances))
	for i, inst := range b.Instances {
		in, err := l.model.Predict(inst)
		if err != nil {
			return nil, fmt.Errorf("mil: bag %d instance %d: %w", b.ID, i, err)
		}
		out[i] = in
	}
	return out, nil
}

// Model exposes the underlying One-class SVM (for diagnostics).
func (l *Learner) Model() *svm.OneClass { return l.model }

// ValidateBags checks a dataset's structural invariants: consistent
// instance dimensionality and matching key lengths.
func ValidateBags(bags []Bag) error {
	dim := -1
	for _, b := range bags {
		if b.Keys != nil && len(b.Keys) != len(b.Instances) {
			return fmt.Errorf("mil: bag %d has %d keys for %d instances", b.ID, len(b.Keys), len(b.Instances))
		}
		for _, inst := range b.Instances {
			if dim == -1 {
				dim = len(inst)
			} else if len(inst) != dim {
				return fmt.Errorf("%w: bag %d", ErrDim, b.ID)
			}
		}
	}
	return nil
}
