package index

import (
	"fmt"
	"math"

	"milvideo/internal/kernel"
)

// Quantization layer: lossy compression of instance vectors for the
// candidate indexes. A trained Quantizer maps each float64 vector to
// a short byte code; probes measure distances asymmetrically (ADC:
// exact float query against compressed points) through a per-query
// lookup table, so a scan costs CodeLen table reads per point instead
// of Dim multiply-adds, and the resident store shrinks from 8·Dim
// bytes per instance to CodeLen bytes plus a shared codebook.
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

// QuantKind names a quantizer family.
type QuantKind string

// The supported quantizers. QuantNone keeps full float64 vectors.
const (
	QuantNone   QuantKind = ""
	QuantScalar QuantKind = "scalar"
	QuantPQ     QuantKind = "pq"
)

// ParseQuantKind validates a quantizer name from a flag or query
// parameter ("none" and "" both mean unquantized).
func ParseQuantKind(s string) (QuantKind, error) {
	switch s {
	case "", "none":
		return QuantNone, nil
	case string(QuantScalar):
		return QuantScalar, nil
	case string(QuantPQ):
		return QuantPQ, nil
	}
	return "", fmt.Errorf("index: unknown quantizer %q (have scalar, pq, none)", s)
}

// Quantizer compresses fixed-dimension vectors to byte codes and
// measures query-to-code distances through a per-query ADC table.
// Implementations are immutable after training and safe for
// concurrent use.
type Quantizer interface {
	// Dim is the input vector dimension.
	Dim() int
	// CodeLen is the encoded size in bytes per vector.
	CodeLen() int
	// Encode writes the code of v into code (len ≥ CodeLen).
	Encode(v []float64, code []byte)
	// Reconstruct decodes a code back to its lattice point (len(out)
	// ≥ Dim) — the point ADC distances are measured to.
	Reconstruct(code []byte, out []float64)
	// TabLen is the ADC table length FillADC requires.
	TabLen() int
	// FillADC precomputes the query's distance table: after it,
	// ADCDist(tab, code) returns ‖q − Reconstruct(code)‖².
	FillADC(q []float64, tab []float64)
	// ADCDist reads the squared distance of one code from the table.
	ADCDist(tab []float64, code []byte) float64
	// CodeDist returns the squared distance between the
	// reconstructions of two codes, accumulated with the same grouping
	// as ADCDist — so tree radii computed from codes and query
	// distances computed through ADC tables measure one consistent
	// metric.
	CodeDist(a, b []byte) float64
	// Bytes is the codebook's resident size.
	Bytes() int
	// Name identifies the quantizer in reports.
	Name() string
}

// ---- scalar quantization ----

// ScalarQuantizer is the per-dimension baseline: each dimension is
// ranged over the training set and snapped to 256 evenly spaced
// levels, giving Dim-byte codes (8× smaller than float64). ADCDist
// sums per-dimension table entries in index order, so it is bitwise
// identical to kernel.SquaredDistance against the reconstruction.
type ScalarQuantizer struct {
	min, scale []float64 // scale = (max−min)/255; 0 for constant dims
}

// TrainScalarQuantizer fits per-dimension ranges over the block.
func TrainScalarQuantizer(b *kernel.FeatureBlock) (*ScalarQuantizer, error) {
	if b == nil || b.Len() == 0 {
		return nil, ErrNoPoints
	}
	dim := b.Dim()
	sq := &ScalarQuantizer{min: make([]float64, dim), scale: make([]float64, dim)}
	max := make([]float64, dim)
	for d := 0; d < dim; d++ {
		sq.min[d] = math.Inf(1)
		max[d] = math.Inf(-1)
	}
	for i := 0; i < b.Len(); i++ {
		row := b.Row(i)
		for d, v := range row {
			if v < sq.min[d] {
				sq.min[d] = v
			}
			if v > max[d] {
				max[d] = v
			}
		}
	}
	for d := 0; d < dim; d++ {
		if span := max[d] - sq.min[d]; span > 0 {
			sq.scale[d] = span / 255
		}
	}
	return sq, nil
}

// Dim implements Quantizer.
func (sq *ScalarQuantizer) Dim() int { return len(sq.min) }

// CodeLen implements Quantizer.
func (sq *ScalarQuantizer) CodeLen() int { return len(sq.min) }

// Encode implements Quantizer. Out-of-range values (vectors inserted
// after training) clamp to the trained range.
func (sq *ScalarQuantizer) Encode(v []float64, code []byte) {
	for d := range sq.min {
		if sq.scale[d] == 0 {
			code[d] = 0
			continue
		}
		c := math.Round((v[d] - sq.min[d]) / sq.scale[d])
		if c < 0 {
			c = 0
		} else if c > 255 {
			c = 255
		}
		code[d] = byte(c)
	}
}

// Reconstruct implements Quantizer.
func (sq *ScalarQuantizer) Reconstruct(code []byte, out []float64) {
	for d := range sq.min {
		out[d] = sq.min[d] + sq.scale[d]*float64(code[d])
	}
}

// TabLen implements Quantizer.
func (sq *ScalarQuantizer) TabLen() int { return len(sq.min) * 256 }

// FillADC implements Quantizer.
func (sq *ScalarQuantizer) FillADC(q []float64, tab []float64) {
	for d := range sq.min {
		base := d * 256
		qd, mn, sc := q[d], sq.min[d], sq.scale[d]
		for c := 0; c < 256; c++ {
			diff := qd - (mn + sc*float64(c))
			tab[base+c] = diff * diff
		}
	}
}

// ADCDist implements Quantizer.
func (sq *ScalarQuantizer) ADCDist(tab []float64, code []byte) float64 {
	d := 0.0
	for j, c := range code {
		d += tab[j*256+int(c)]
	}
	return d
}

// CodeDist implements Quantizer: per-dimension differences summed in
// index order, bitwise identical to the serial kernel over the two
// reconstructions (and to ADCDist with either side's table).
func (sq *ScalarQuantizer) CodeDist(a, b []byte) float64 {
	d := 0.0
	for j := range sq.min {
		ra := sq.min[j] + sq.scale[j]*float64(a[j])
		rb := sq.min[j] + sq.scale[j]*float64(b[j])
		diff := ra - rb
		d += diff * diff
	}
	return d
}

// Bytes implements Quantizer.
func (sq *ScalarQuantizer) Bytes() int { return 8 * (cap(sq.min) + cap(sq.scale)) }

// Name implements Quantizer.
func (sq *ScalarQuantizer) Name() string { return "scalar8" }

// ---- product quantization ----

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

// Dim implements Quantizer.
func (pq *ProductQuantizer) Dim() int { return pq.dim }

// CodeLen implements Quantizer.
func (pq *ProductQuantizer) CodeLen() int { return len(pq.offs) - 1 }

// Encode implements Quantizer: each subspace snaps to its nearest
// centroid (lowest index on ties). It scans the subspace's contiguous
// codebook with the arithmetic of kernel.SquaredDistance(sub,
// centroid), so the codes are the ones that call would choose.
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

// Reconstruct implements Quantizer.
func (pq *ProductQuantizer) Reconstruct(code []byte, out []float64) {
	for m := 0; m < pq.CodeLen(); m++ {
		copy(out[pq.offs[m]:pq.offs[m+1]], pq.centAt(m, int(code[m])))
	}
}

// TabLen implements Quantizer.
func (pq *ProductQuantizer) TabLen() int { return pq.CodeLen() * pq.k }

// FillADC implements Quantizer.
func (pq *ProductQuantizer) FillADC(q []float64, tab []float64) {
	for m := 0; m < pq.CodeLen(); m++ {
		sub := q[pq.offs[m]:pq.offs[m+1]]
		base := m * pq.k
		for c := 0; c < pq.k; c++ {
			tab[base+c] = kernel.SquaredDistance(sub, pq.centAt(m, c))
		}
	}
}

// ADCDist implements Quantizer.
func (pq *ProductQuantizer) ADCDist(tab []float64, code []byte) float64 {
	d := 0.0
	for m, c := range code {
		d += tab[m*pq.k+int(c)]
	}
	return d
}

// CodeDist implements Quantizer: per-subspace centroid distances
// summed in subspace order — the same grouping as ADCDist over one
// side's reconstruction table.
func (pq *ProductQuantizer) CodeDist(a, b []byte) float64 {
	d := 0.0
	for m := 0; m < pq.CodeLen(); m++ {
		d += kernel.SquaredDistance(pq.centAt(m, int(a[m])), pq.centAt(m, int(b[m])))
	}
	return d
}

// Bytes implements Quantizer.
func (pq *ProductQuantizer) Bytes() int { return 8*cap(pq.cent) + 8*cap(pq.offs) }

// Name implements Quantizer.
func (pq *ProductQuantizer) Name() string {
	return fmt.Sprintf("pq(m=%d,k=%d)", pq.CodeLen(), pq.k)
}

// TrainQuantizer trains the named quantizer family over a block of
// instance vectors (QuantNone returns nil, nil). seed drives the PQ
// codebooks; the scalar baseline is deterministic by construction.
func TrainQuantizer(kind QuantKind, b *kernel.FeatureBlock, seed int64) (Quantizer, error) {
	switch kind {
	case QuantNone:
		return nil, nil
	case QuantScalar:
		return TrainScalarQuantizer(b)
	case QuantPQ:
		return TrainProductQuantizer(b, PQOptions{Seed: seed})
	}
	return nil, fmt.Errorf("index: unknown quantizer %q", kind)
}

// codeStore holds the packed codes of an indexed point set, appended
// in point order.
type codeStore struct {
	qz    Quantizer
	codes []byte
}

func newCodeStore(qz Quantizer, capRows int) *codeStore {
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
