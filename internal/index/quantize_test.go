package index

import (
	"math"
	"math/rand"
	"testing"

	"milvideo/internal/kernel"
)

// randBlock builds n rows of dim-dimensional gaussian vectors.
func randBlock(seed int64, n, dim int) *kernel.FeatureBlock {
	rng := rand.New(rand.NewSource(seed))
	b := kernel.NewFeatureBlock(dim, n)
	row := make([]float64, dim)
	for i := 0; i < n; i++ {
		for d := range row {
			row[d] = rng.NormFloat64()
		}
		b.Append(row)
	}
	return b
}

func TestParseQuantKind(t *testing.T) {
	for _, s := range []string{"", "none", "pq"} {
		if _, err := ParseQuantKind(s); err != nil {
			t.Fatalf("ParseQuantKind(%q): %v", s, err)
		}
	}
	for _, s := range []string{"opq", "scalar"} {
		if _, err := ParseQuantKind(s); err == nil {
			t.Fatalf("unknown quantizer %q parsed successfully", s)
		}
	}
}

// TestProductQuantizerContracts pins the PQ's ADC consistency: table
// distances agree with the reconstruction distance up to grouping,
// CodeDist is bitwise consistent with ADC over a reconstruction, and
// encoding is idempotent (a reconstruction encodes to its own code).
func TestProductQuantizerContracts(t *testing.T) {
	const dim = 9
	b := randBlock(3, 400, dim)
	pq, err := TrainProductQuantizer(b, PQOptions{K: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if pq.Dim() != dim || pq.CodeLen() != 3 {
		t.Fatalf("dim %d codeLen %d, want %d/3", pq.Dim(), pq.CodeLen(), dim)
	}
	code := make([]byte, pq.CodeLen())
	code2 := make([]byte, pq.CodeLen())
	recon := make([]float64, dim)
	tab := make([]float64, pq.TabLen())
	rng := rand.New(rand.NewSource(4))
	q := make([]float64, dim)
	for d := range q {
		q[d] = rng.NormFloat64()
	}
	pq.FillADC(q, tab)
	for i := 0; i < b.Len(); i += 17 {
		row := b.Row(i)
		pq.Encode(row, code)
		pq.Reconstruct(code, recon)
		adc := pq.ADCDist(tab, code)
		serial := kernel.SquaredDistance(q, recon)
		if math.Abs(adc-serial) > 1e-9*(1+serial) {
			t.Fatalf("row %d: ADC %v vs serial-to-recon %v", i, adc, serial)
		}
		pq.Encode(recon, code2)
		for m := range code {
			if code[m] != code2[m] {
				t.Fatalf("row %d: reconstruction re-encoded to %v, want %v", i, code2, code)
			}
		}
		tabA := make([]float64, pq.TabLen())
		pq.FillADC(recon, tabA)
		pq.Encode(b.Row((i+31)%b.Len()), code2)
		if got, want := pq.CodeDist(code, code2), pq.ADCDist(tabA, code2); got != want {
			t.Fatalf("row %d: CodeDist %v != ADC-over-recon %v", i, got, want)
		}
	}
}

// TestQuantizerCompression verifies the memory contract the bench
// reports: packed PQ codes are at most a quarter of the float64 store
// at instance dim 9.
func TestQuantizerCompression(t *testing.T) {
	const dim, n = 9, 500
	b := randBlock(5, n, dim)
	floatBytes := 8 * dim * n
	qz, err := TrainProductQuantizer(b, PQOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	codeBytes := qz.CodeLen() * n
	if codeBytes*4 > floatBytes {
		t.Fatalf("%d code bytes vs %d float bytes — not ≤ 1/4", codeBytes, floatBytes)
	}
	if qz.Bytes() <= 0 {
		t.Fatal("zero codebook bytes")
	}
	if qz.Name() == "" {
		t.Fatal("empty name")
	}
	if _, err := TrainProductQuantizer(kernel.NewFeatureBlock(3, 0), PQOptions{Seed: 1}); err == nil {
		t.Fatal("trained PQ over empty block")
	}
}

// TestQuantizedIndexRecall: PQ VP-tree searches over gaussian points
// keep high top-10 agreement with the exact search — the probe-stage
// fidelity the recall gates lean on before the exact re-rank even
// runs.
func TestQuantizedIndexRecall(t *testing.T) {
	const dim, n, k = 9, 600, 10
	b := randBlock(11, n, dim)
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = b.Row(i)
	}
	rng := rand.New(rand.NewSource(12))
	qz, err := TrainProductQuantizer(b, PQOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	vq, err := BuildVPTree(pts, VPOptions{Quantizer: qz})
	if err != nil {
		t.Fatal(err)
	}
	ve, err := BuildVPTree(pts, VPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	overlapSum, trials := 0, 20
	for trial := 0; trial < trials; trial++ {
		q := make([]float64, dim)
		for d := range q {
			q[d] = rng.NormFloat64()
		}
		exact, _ := ve.KNN(q, k)
		want := make(map[int]bool, k)
		for _, nb := range exact {
			want[nb.Idx] = true
		}
		got, _ := vq.KNN(q, k)
		if len(got) != k {
			t.Fatalf("quantized KNN returned %d, want %d", len(got), k)
		}
		for _, nb := range got {
			if want[nb.Idx] {
				overlapSum++
			}
		}
	}
	if recall := float64(overlapSum) / float64(trials*k); recall < 0.8 {
		t.Fatalf("quantized top-%d recall %.2f < 0.8", k, recall)
	}
}
