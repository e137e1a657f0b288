package index

import (
	"fmt"
	"math"
	"math/rand"

	"milvideo/internal/kernel"
)

// Quantization layer: lossy compression of instance vectors for the
// candidate index. A trained ProductQuantizer maps each float64
// vector to a short byte code; probes measure distances
// asymmetrically (ADC: exact float query against compressed points)
// through a per-query lookup table, so a scan costs CodeLen table
// reads per point instead of Dim multiply-adds, and the resident
// store shrinks from 8·Dim bytes per instance to CodeLen bytes plus a
// shared codebook.
//
// The geometry that makes this safe: quantizing is snapping every
// indexed point onto the reconstruction lattice. ADC distances are
// exact Euclidean distances to the snapped points, which still form a
// metric — so a "quantized" index is simply an exact index over the
// snapped point set. VP-tree pruning stays sound, searches are
// deterministic and structure-independent, and the only error is the
// snap displacement itself — which the §5.3 ranking contract already
// absorbs, because the exact MIL re-rank rescores every candidate
// from the uncompressed features.

// QuantKind names an instance store: float rows or PQ codes.
type QuantKind string

// The supported stores. QuantNone keeps full float64 vectors.
const (
	QuantNone QuantKind = ""
	QuantPQ   QuantKind = "pq"
)

// ParseQuantKind validates a quantizer name from a flag or query
// parameter ("none" and "" both mean unquantized).
func ParseQuantKind(s string) (QuantKind, error) {
	switch s {
	case "", "none":
		return QuantNone, nil
	case string(QuantPQ):
		return QuantPQ, nil
	}
	return "", fmt.Errorf("index: unknown quantizer %q (have pq, none)", s)
}

// PQOptions tunes product-quantizer training. Zero values take the
// documented defaults.
type PQOptions struct {
	// SubDim is the target dimensions per subspace (default 3 — one
	// event-model feature triple per subspace). The last subspace
	// absorbs any remainder.
	SubDim int
	// K is the per-subspace codebook size (default 256, max 256 so a
	// code fits one byte; clamped to the training-set size).
	K int
	// Iters bounds the per-subspace Lloyd iterations (default 15).
	Iters int
	// Seed drives k-means++ (default 1).
	Seed int64
	// TrainSamples sets the deterministic training subsample (default
	// 4096). It is a stride, not a cap: a block of n > TrainSamples
	// rows trains on every ⌊n / TrainSamples⌋-th row from row 0, which
	// keeps up to 2·TrainSamples−1 rows (4,112 of 74,000), and a
	// smaller block trains on every row.
	TrainSamples int
}

func (o PQOptions) withDefaults() PQOptions {
	if o.SubDim <= 0 {
		o.SubDim = 3
	}
	if o.K <= 0 {
		o.K = 256
	}
	if o.K > 256 {
		o.K = 256
	}
	if o.Iters <= 0 {
		o.Iters = 15
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.TrainSamples <= 0 {
		o.TrainSamples = 4096
	}
	return o
}

// ProductQuantizer splits the vector into M contiguous subspaces and
// snaps each sub-vector to its nearest of K trained centroids: codes
// are M bytes (for the 9–27-dim TS features with SubDim 3, a 24–72×
// compression over float64). ADCDist sums one table entry per
// subspace — the asymmetric distance computation of Jégou et al.'s
// product quantization, exact with respect to the reconstruction.
type ProductQuantizer struct {
	dim  int
	offs []int     // M+1 subspace boundaries
	k    int       // centroids per subspace
	cent []float64 // concatenated codebooks: subspace m's centroid c at offs[m]·k + c·subDim(m)
}

// TrainProductQuantizer fits per-subspace k-means codebooks over the
// block (deterministic given the seed).
func TrainProductQuantizer(b *kernel.FeatureBlock, opt PQOptions) (*ProductQuantizer, error) {
	if b == nil || b.Len() == 0 {
		return nil, ErrNoPoints
	}
	opt = opt.withDefaults()
	dim := b.Dim()
	if dim == 0 {
		return nil, ErrNoPoints
	}
	m := dim / opt.SubDim
	if m < 1 {
		m = 1
	}
	offs := make([]int, m+1)
	for i := 0; i <= m; i++ {
		offs[i] = i * opt.SubDim
	}
	offs[m] = dim // last subspace absorbs the remainder
	n := b.Len()
	k := opt.K
	if k > n {
		k = n
	}
	// Deterministic stride subsample for training.
	sample := make([]int, 0, opt.TrainSamples)
	stride := 1
	if n > opt.TrainSamples {
		stride = n / opt.TrainSamples
	}
	for i := 0; i < n; i += stride {
		sample = append(sample, i)
	}
	pq := &ProductQuantizer{dim: dim, offs: offs, k: k}
	for mi := 0; mi < m; mi++ {
		lo, hi := offs[mi], offs[mi+1]
		sub := make([][]float64, len(sample))
		for si, ri := range sample {
			sub[si] = b.Row(ri)[lo:hi]
		}
		cents := kmeansPP(sub, k, opt.Iters, opt.Seed+int64(mi))
		for _, c := range cents {
			pq.cent = append(pq.cent, c...)
		}
	}
	return pq, nil
}

// kmeansFastThreshold is the point count beyond which Lloyd
// assignment switches to the columnar unrolled kernel. Its sums may
// differ from the serial path's in the last bit, so crossing the
// threshold can move centroids. Both sides are deterministic, and
// TestPrunedRankingGolden pins rankings built on each (PQ codebooks
// trained on 10× and 100× the demo catalog), so moving the threshold
// or changing either kernel re-records those hashes.
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

// subDim reports subspace m's width.
func (pq *ProductQuantizer) subDim(m int) int { return pq.offs[m+1] - pq.offs[m] }

// centAt returns subspace m's centroid c. Every subspace before m
// holds k centroids of its own width, and those widths sum to
// offs[m], so m's codebook starts at offs[m]·k.
func (pq *ProductQuantizer) centAt(m, c int) []float64 {
	w := pq.subDim(m)
	off := pq.offs[m]*pq.k + c*w
	return pq.cent[off : off+w]
}

// Dim is the input vector dimension.
func (pq *ProductQuantizer) Dim() int { return pq.dim }

// CodeLen is the encoded size in bytes per vector: one per subspace.
func (pq *ProductQuantizer) CodeLen() int { return len(pq.offs) - 1 }

// Encode writes the code of v into code (len ≥ CodeLen): each
// subspace snaps to its nearest centroid (lowest index on ties). It
// scans the subspace's contiguous codebook with the arithmetic of
// kernel.SquaredDistance(sub, centroid), so the codes are the ones
// that call would choose.
func (pq *ProductQuantizer) Encode(v []float64, code []byte) {
	for m := 0; m < pq.CodeLen(); m++ {
		lo, hi := pq.offs[m], pq.offs[m+1]
		sub, w := v[lo:hi], hi-lo
		book := pq.cent[lo*pq.k : hi*pq.k]
		best, bestD := 0, math.Inf(1)
		for c := 0; c < pq.k; c++ {
			cent := book[c*w : c*w+w]
			d := 0.0
			for i, x := range sub {
				diff := x - cent[i]
				d += diff * diff
			}
			if d < bestD {
				best, bestD = c, d
			}
		}
		code[m] = byte(best)
	}
}

// Reconstruct decodes a code back to its lattice point (len(out) ≥
// Dim) — the point ADC distances are measured to.
func (pq *ProductQuantizer) Reconstruct(code []byte, out []float64) {
	for m := 0; m < pq.CodeLen(); m++ {
		copy(out[pq.offs[m]:pq.offs[m+1]], pq.centAt(m, int(code[m])))
	}
}

// TabLen is the ADC table length FillADC requires.
func (pq *ProductQuantizer) TabLen() int { return pq.CodeLen() * pq.k }

// FillADC precomputes the query's distance table: after it,
// ADCDist(tab, code) returns ‖q − Reconstruct(code)‖² up to grouping.
func (pq *ProductQuantizer) FillADC(q []float64, tab []float64) {
	for m := 0; m < pq.CodeLen(); m++ {
		sub := q[pq.offs[m]:pq.offs[m+1]]
		base := m * pq.k
		for c := 0; c < pq.k; c++ {
			tab[base+c] = kernel.SquaredDistance(sub, pq.centAt(m, c))
		}
	}
}

// ADCDist reads the squared distance of one code from the table.
func (pq *ProductQuantizer) ADCDist(tab []float64, code []byte) float64 {
	d := 0.0
	for m, c := range code {
		d += tab[m*pq.k+int(c)]
	}
	return d
}

// CodeDist returns the squared distance between the reconstructions
// of two codes: per-subspace centroid distances summed in subspace
// order — the same grouping as ADCDist over one side's reconstruction
// table, so tree radii computed from codes and query distances
// computed through ADC tables measure one consistent metric.
func (pq *ProductQuantizer) CodeDist(a, b []byte) float64 {
	d := 0.0
	for m := 0; m < pq.CodeLen(); m++ {
		d += kernel.SquaredDistance(pq.centAt(m, int(a[m])), pq.centAt(m, int(b[m])))
	}
	return d
}

// Bytes is the codebook's resident size.
func (pq *ProductQuantizer) Bytes() int { return 8*cap(pq.cent) + 8*cap(pq.offs) }

// Name identifies the quantizer in reports.
func (pq *ProductQuantizer) Name() string {
	return fmt.Sprintf("pq(m=%d,k=%d)", pq.CodeLen(), pq.k)
}

// codeStore holds the packed codes of an indexed point set, appended
// in point order.
type codeStore struct {
	qz    *ProductQuantizer
	codes []byte
}

func newCodeStore(qz *ProductQuantizer, capRows int) *codeStore {
	return &codeStore{qz: qz, codes: make([]byte, 0, capRows*qz.CodeLen())}
}

// add encodes v as the next point and returns its index.
func (cs *codeStore) add(v []float64) int {
	w := cs.qz.CodeLen()
	off := len(cs.codes)
	cs.codes = append(cs.codes, make([]byte, w)...)
	cs.qz.Encode(v, cs.codes[off:off+w])
	return off / w
}

// at returns point i's code.
func (cs *codeStore) at(i int) []byte {
	w := cs.qz.CodeLen()
	return cs.codes[i*w : (i+1)*w]
}

// len reports the stored point count.
func (cs *codeStore) len() int {
	if w := cs.qz.CodeLen(); w > 0 {
		return len(cs.codes) / w
	}
	return 0
}

// bytes reports the resident code buffer size.
func (cs *codeStore) bytes() int { return cap(cs.codes) }
