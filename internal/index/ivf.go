package index

import (
	"fmt"
	"math"
	"math/rand"

	"milvideo/internal/kernel"
)

// IVF is a coarse-quantizer inverted file: k-means centroids partition
// the point set into lists, and a query scans only the nprobe lists
// whose centroids are nearest — the classic two-level ANN layout
// (Sivic/Zisserman's visual vocabularies, FAISS's IVFFlat). Probe
// cost is O(clusters) centroid distances plus the scanned lists'
// points; with clusters ≈ √n and nprobe ≪ clusters that is sublinear
// in n.
//
// Point storage is columnar: a kernel.FeatureBlock of float rows, or
// — with a Quantizer — a packed code buffer scanned through per-query
// ADC tables (IVFADC: coarse lists probed with asymmetric distances).
// List membership is always decided on the original float vector, at
// build and at Insert alike, so incremental growth lands points in
// exactly the lists a fresh build over the same centroids would.
type IVF struct {
	blk       *kernel.FeatureBlock // float rows (nil when quantized)
	codes     *codeStore           // packed codes (nil when unquantized)
	dim       int
	centroids [][]float64
	lists     [][]int // point indices per centroid, ascending
	dead      []bool
	live      int
}

// IVFOptions tunes construction.
type IVFOptions struct {
	// Clusters is the coarse codebook size (default round(√n),
	// clamped to [1, n]).
	Clusters int
	// Iters bounds the Lloyd iterations (default 20; iteration stops
	// early when assignments stabilize).
	Iters int
	// Seed drives the k-means++ initialization (default 1). Identical
	// seeds yield identical indexes.
	Seed int64
	// TrainSamples sets the coarse k-means training subsample
	// (default 8192). It is a stride, not a cap: a set of n >
	// TrainSamples points trains on every ⌊n / TrainSamples⌋-th point
	// from point 0, which keeps up to 2·TrainSamples−1 points, and a
	// smaller set trains on every point. The list-assignment pass
	// always covers every point.
	TrainSamples int
	// Centroids, when set, skips k-means and adopts these coarse
	// centroids verbatim (deep-copied; Clusters/Iters/Seed are
	// ignored). This pins the coarse partition, making builds over
	// different point sets directly comparable — the incremental
	// equivalence tests rebuild over survivors with the original
	// centroids.
	Centroids [][]float64
	// Quantizer, when set, stores CodeLen-byte codes instead of float
	// rows; list scans measure through per-query ADC tables.
	Quantizer Quantizer
}

func (o IVFOptions) withDefaults(n int) IVFOptions {
	if o.Clusters <= 0 {
		o.Clusters = int(math.Round(math.Sqrt(float64(n))))
	}
	if o.Clusters < 1 {
		o.Clusters = 1
	}
	if o.Clusters > n {
		o.Clusters = n
	}
	if o.Iters <= 0 {
		o.Iters = 20
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.TrainSamples <= 0 {
		o.TrainSamples = 8192
	}
	return o
}

// BuildIVF constructs the index over pts (copied into the index's
// columnar store; the input slice is not retained).
func BuildIVF(pts [][]float64, opt IVFOptions) (*IVF, error) {
	if len(pts) == 0 {
		return nil, ErrNoPoints
	}
	dim := len(pts[0])
	for i, p := range pts {
		if len(p) != dim {
			return nil, fmt.Errorf("%w: point %d has dim %d, want %d", ErrDim, i, len(p), dim)
		}
	}
	opt = opt.withDefaults(len(pts))
	if opt.Quantizer != nil && opt.Quantizer.Dim() != dim {
		return nil, fmt.Errorf("%w: quantizer dim %d, points dim %d", ErrDim, opt.Quantizer.Dim(), dim)
	}
	var centroids [][]float64
	if len(opt.Centroids) > 0 {
		centroids = make([][]float64, len(opt.Centroids))
		for i, c := range opt.Centroids {
			if len(c) != dim {
				return nil, fmt.Errorf("%w: centroid %d has dim %d, want %d", ErrDim, i, len(c), dim)
			}
			centroids[i] = clone(c)
		}
	} else {
		centroids = kmeansPP(subsample(pts, opt.TrainSamples), opt.Clusters, opt.Iters, opt.Seed)
	}
	f := &IVF{
		dim:       dim,
		centroids: centroids,
		lists:     make([][]int, len(centroids)),
		dead:      make([]bool, len(pts)),
		live:      len(pts),
	}
	if qz := opt.Quantizer; qz != nil {
		f.codes = newCodeStore(qz, len(pts))
		for _, p := range pts {
			f.codes.add(p)
		}
	} else {
		blk, err := kernel.FeatureBlockFromRows(pts)
		if err != nil {
			return nil, err
		}
		f.blk = blk
	}
	for i := range pts {
		c := nearestCentroid(centroids, pts[i])
		f.lists[c] = append(f.lists[c], i)
	}
	return f, nil
}

// subsample returns a deterministic stride subsample of at most limit
// points (the input itself when it already fits).
func subsample(pts [][]float64, limit int) [][]float64 {
	if len(pts) <= limit {
		return pts
	}
	stride := len(pts) / limit
	out := make([][]float64, 0, limit+1)
	for i := 0; i < len(pts); i += stride {
		out = append(out, pts[i])
	}
	return out
}

// kmeansFastThreshold is the point count beyond which Lloyd
// assignment switches to the columnar unrolled kernel. Its sums may
// differ from the serial path's in the last bit, so crossing the
// threshold can move centroids. Both sides are deterministic, and
// TestPrunedRankingGolden pins rankings built on each (IVF centroids
// and PQ codebooks trained on 10× and 100× the demo catalog), so
// moving the threshold or changing either kernel re-records those
// hashes.
const kmeansFastThreshold = 2048

// kmeansPP runs seeded k-means++ initialization followed by Lloyd
// iterations. Deterministic: the rng is seeded, assignment ties break
// toward the lowest centroid index, and an emptied cluster is
// reseeded to the point farthest from its assigned centroid (lowest
// index on ties).
func kmeansPP(pts [][]float64, k, iters int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	dim := len(pts[0])
	centroids := make([][]float64, 0, k)
	centroids = append(centroids, clone(pts[rng.Intn(len(pts))]))
	// D² sampling: each next seed is drawn proportionally to the
	// squared distance to the nearest chosen centroid.
	d2 := make([]float64, len(pts))
	for i, p := range pts {
		d2[i] = kernel.SquaredDistance(p, centroids[0])
	}
	for len(centroids) < k {
		total := 0.0
		for _, d := range d2 {
			total += d
		}
		var next int
		if total <= 0 {
			// All points coincide with a centroid; any point works.
			next = rng.Intn(len(pts))
		} else {
			r := rng.Float64() * total
			acc := 0.0
			next = len(pts) - 1
			for i, d := range d2 {
				acc += d
				if acc >= r {
					next = i
					break
				}
			}
		}
		c := clone(pts[next])
		centroids = append(centroids, c)
		for i, p := range pts {
			if d := kernel.SquaredDistance(p, c); d < d2[i] {
				d2[i] = d
			}
		}
	}

	// Columnar view for the fast assignment path on large inputs.
	var blk *kernel.FeatureBlock
	var fastD []float64
	var fastBest []float64
	if len(pts) >= kmeansFastThreshold {
		if b, err := kernel.FeatureBlockFromRows(pts); err == nil {
			blk = b
			fastD = make([]float64, len(pts))
			fastBest = make([]float64, len(pts))
		}
	}

	assign := make([]int, len(pts))
	for i := range assign {
		assign[i] = -1
	}
	for it := 0; it < iters; it++ {
		changed := false
		if blk != nil {
			// Centroid-major sweep: one unrolled streaming pass per
			// centroid, argmin per point with ties to the lowest
			// centroid index (strict < against earlier centroids).
			best := fastBest[:len(pts)]
			bestIdx := make([]int, len(pts))
			for c := range centroids {
				blk.SquaredDistsToFast(centroids[c], fastD)
				if c == 0 {
					copy(best, fastD)
					continue
				}
				for i, d := range fastD {
					if d < best[i] {
						best[i] = d
						bestIdx[i] = c
					}
				}
			}
			for i, c := range bestIdx {
				if c != assign[i] {
					assign[i] = c
					changed = true
				}
			}
		} else {
			for i, p := range pts {
				c := nearestCentroid(centroids, p)
				if c != assign[i] {
					assign[i] = c
					changed = true
				}
			}
		}
		if !changed {
			break
		}
		counts := make([]int, len(centroids))
		sums := make([][]float64, len(centroids))
		for c := range sums {
			sums[c] = make([]float64, dim)
		}
		for i, p := range pts {
			c := assign[i]
			counts[c]++
			for j, v := range p {
				sums[c][j] += v
			}
		}
		for c := range centroids {
			if counts[c] == 0 {
				// Reseed an emptied cluster to the farthest point.
				far, farD := 0, -1.0
				for i, p := range pts {
					if d := kernel.SquaredDistance(p, centroids[assign[i]]); d > farD {
						far, farD = i, d
					}
				}
				centroids[c] = clone(pts[far])
				continue
			}
			for j := range sums[c] {
				sums[c][j] /= float64(counts[c])
			}
			centroids[c] = sums[c]
		}
	}
	return centroids
}

func clone(v []float64) []float64 { return append([]float64(nil), v...) }

// nearestCentroid returns the index of the closest centroid (lowest
// index on exact ties).
func nearestCentroid(centroids [][]float64, p []float64) int {
	best, bestD := 0, math.Inf(1)
	for c, cen := range centroids {
		if d := kernel.SquaredDistance(p, cen); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// Len reports the stored point count, tombstones included.
func (f *IVF) Len() int {
	if f.codes != nil {
		return f.codes.len()
	}
	return f.blk.Len()
}

// Live reports the non-tombstoned point count.
func (f *IVF) Live() int { return f.live }

// Tombstones reports the deleted-but-resident point count.
func (f *IVF) Tombstones() int { return f.Len() - f.live }

// Clusters reports the coarse codebook size.
func (f *IVF) Clusters() int { return len(f.centroids) }

// Centroids returns a deep copy of the coarse centroids (for
// reproducible rebuilds).
func (f *IVF) Centroids() [][]float64 {
	out := make([][]float64, len(f.centroids))
	for i, c := range f.centroids {
		out[i] = clone(c)
	}
	return out
}

// PointBytes reports the resident bytes of the point store (codes or
// float rows; centroids and the shared codebook are accounted by the
// owner).
func (f *IVF) PointBytes() int {
	if f.codes != nil {
		return f.codes.bytes()
	}
	return f.blk.Bytes()
}

// Insert appends v to the list of its nearest centroid — the same
// float-vector assignment rule the build applies, so the grown index
// is list-for-list identical to a fresh build over the extended point
// set (given the same centroids). Returns the new point's index, or
// -1 on dimension mismatch.
func (f *IVF) Insert(v []float64) int {
	if len(v) != f.dim {
		return -1
	}
	var id int
	if f.codes != nil {
		id = f.codes.add(v)
	} else {
		id = f.blk.Append(v)
	}
	f.dead = append(f.dead, false)
	f.live++
	c := nearestCentroid(f.centroids, v)
	// Appended ids exceed every stored id, so the list stays
	// ascending.
	f.lists[c] = append(f.lists[c], id)
	return id
}

// Delete tombstones point id: it stays resident in its list but no
// search returns it. Reports whether the id was live.
func (f *IVF) Delete(id int) bool {
	if id < 0 || id >= len(f.dead) || f.dead[id] {
		return false
	}
	f.dead[id] = true
	f.live--
	return true
}

// Search returns the k nearest neighbors of q found in the nprobe
// lists whose centroids are closest, in ascending distance (ties by
// ascending index), plus the number of distance evaluations spent
// (centroids + scanned points). nprobe is clamped to [1, Clusters];
// nprobe == Clusters makes the search exact over the live points.
func (f *IVF) Search(q []float64, k, nprobe int) ([]Neighbor, int) {
	res, _, evals := f.search(q, k, nprobe, math.Inf(1), NewScratch())
	sortNeighbors(res)
	return res, evals
}

// search is the probe behind Search and the bag probe: it selects the
// nprobe nearest centroids, scans their lists into a k-best buffer and
// returns the k best points within bound (a non-positive or NaN bound
// means unbounded; ties at bound are kept) in no particular order, the
// distance of the k-th of them (+Inf when fewer than k were found)
// and the distance evaluations spent. The bound filters hits, not
// lists: IVF's cost is the scan. The result aliases sc.
func (f *IVF) search(q []float64, k, nprobe int, bound float64, sc *Scratch) ([]Neighbor, float64, int) {
	if k <= 0 || len(q) != f.dim || f.live == 0 {
		return nil, math.Inf(1), 0
	}
	nprobe = min(max(nprobe, 1), len(f.centroids))
	if math.IsNaN(bound) || bound <= 0 {
		bound = math.Inf(1)
	}
	evals := 0
	order, best := sc.cord[:0], kBest{k: k, buf: sc.best[:0]}
	for c, cen := range f.centroids {
		evals++
		order = append(order, Neighbor{Idx: c, Dist: kernel.SquaredDistance(q, cen)})
	}
	// Which lists are scanned matters, not the order they are scanned
	// in: the k-best result is a set under a total order.
	selectK(order, nprobe)
	var tab []float64
	if f.codes != nil {
		tab = sc.adcTab(f.codes.qz, q)
	}
	for _, cn := range order[:nprobe] {
		for _, idx := range f.lists[cn.Idx] {
			if f.dead[idx] {
				continue
			}
			evals++
			var d float64
			if f.codes != nil {
				d = math.Sqrt(f.codes.qz.ADCDist(tab, f.codes.at(idx)))
			} else {
				d = math.Sqrt(f.blk.SquaredDistTo(idx, q))
			}
			if d > bound {
				continue
			}
			best.push(idx, d)
		}
	}
	res, kth := best.result()
	sc.cord, sc.best = order[:0], res // return grown buffers to the scratch
	return res, kth, evals
}
