package kernel

// FeatureBlock is a columnar (structure-of-arrays) store for a set of
// equal-dimension feature vectors: all rows live contiguously in one
// flat buffer, so batched distance kernels stream through memory
// instead of chasing a pointer per vector. The candidate indexes keep
// their instance vectors in one (when not quantized), replacing the
// per-row allocations of [][]float64.
//
// Two distance kernels are provided with different contracts:
//
//   - SquaredDistTo / SquaredDistsTo accumulate in index order,
//     bitwise identical to SquaredDistance on the same row — required
//     wherever distances must interchange with the scalar path (the
//     exact index searches whose results are pinned against brute
//     force).
//   - SquaredDistsToFast unrolls the inner loop over four independent
//     accumulators. It reassociates the summation (same value up to
//     floating-point rounding, not bitwise) and is reserved for
//     training paths whose output is consumed as a whole — k-means
//     assignment during index construction — never for distances that
//     feed caches or rankings directly.
type FeatureBlock struct {
	data []float64
	dim  int
}

// NewFeatureBlock returns an empty block for dim-dimensional rows,
// with capacity for capRows appends before reallocation.
func NewFeatureBlock(dim, capRows int) *FeatureBlock {
	if dim < 0 {
		dim = 0
	}
	if capRows < 0 {
		capRows = 0
	}
	return &FeatureBlock{data: make([]float64, 0, dim*capRows), dim: dim}
}

// FeatureBlockFromRows copies rows into a fresh block. All rows must
// share one dimension; ragged input returns ErrDim.
func FeatureBlockFromRows(rows [][]float64) (*FeatureBlock, error) {
	if len(rows) == 0 {
		return &FeatureBlock{}, nil
	}
	dim := len(rows[0])
	b := NewFeatureBlock(dim, len(rows))
	for _, r := range rows {
		if len(r) != dim {
			return nil, ErrDim
		}
		b.data = append(b.data, r...)
	}
	return b, nil
}

// Len reports the row count.
func (b *FeatureBlock) Len() int {
	if b.dim == 0 {
		return 0
	}
	return len(b.data) / b.dim
}

// Dim reports the row dimension.
func (b *FeatureBlock) Dim() int { return b.dim }

// Bytes reports the buffer's resident size (capacity, since that is
// what the process actually holds).
func (b *FeatureBlock) Bytes() int { return 8 * cap(b.data) }

// Append adds a row and returns its index. The vector is copied; a
// dimension mismatch returns -1 and leaves the block unchanged. An
// empty block adopts the first appended row's dimension.
func (b *FeatureBlock) Append(v []float64) int {
	if b.dim == 0 && len(b.data) == 0 {
		b.dim = len(v)
	}
	if len(v) != b.dim || b.dim == 0 {
		return -1
	}
	b.data = append(b.data, v...)
	return b.Len() - 1
}

// Row returns a read-only view of row i (aliasing the buffer — do not
// mutate, and do not retain across Append, which may reallocate).
func (b *FeatureBlock) Row(i int) []float64 {
	off := i * b.dim
	return b.data[off : off+b.dim : off+b.dim]
}

// SquaredDistTo returns ‖row(i)−q‖², accumulating in index order:
// bitwise identical to SquaredDistance(Row(i), q).
func (b *FeatureBlock) SquaredDistTo(i int, q []float64) float64 {
	row := b.data[i*b.dim : (i+1)*b.dim]
	d := 0.0
	for j := range row {
		diff := row[j] - q[j]
		d += diff * diff
	}
	return d
}

// SquaredDistsTo fills out[i] = ‖row(i)−q‖² for every row, streaming
// the buffer once. Each entry is bitwise identical to SquaredDistTo.
// len(out) must equal Len().
func (b *FeatureBlock) SquaredDistsTo(q []float64, out []float64) {
	dim := b.dim
	for i := range out {
		row := b.data[i*dim : (i+1)*dim]
		d := 0.0
		for j := range row {
			diff := row[j] - q[j]
			d += diff * diff
		}
		out[i] = d
	}
}

// SquaredDistsToFast is the throughput variant of SquaredDistsTo: the
// inner product is unrolled over four independent accumulators, so
// the result may differ from the serial kernel in the last ulp. Use
// only where the consumer tolerates reassociation (k-means training,
// footprint-stage scans) — never where a distance must match the
// scalar path bitwise.
func (b *FeatureBlock) SquaredDistsToFast(q []float64, out []float64) {
	dim := b.dim
	for i := range out {
		out[i] = squaredDistUnrolled(b.data[i*dim:(i+1)*dim], q)
	}
}

// squaredDistUnrolled computes ‖row−q‖² with 4-way unrolling.
func squaredDistUnrolled(row, q []float64) float64 {
	var s0, s1, s2, s3 float64
	j := 0
	for ; j+4 <= len(q); j += 4 {
		d0 := row[j] - q[j]
		d1 := row[j+1] - q[j+1]
		d2 := row[j+2] - q[j+2]
		d3 := row[j+3] - q[j+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	tail := 0.0
	for ; j < len(q); j++ {
		d := row[j] - q[j]
		tail += d * d
	}
	return (s0 + s1) + (s2 + s3) + tail
}
