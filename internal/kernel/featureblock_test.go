package kernel

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// randVecs draws n seeded d-dim vectors.
func randVecs(seed int64, n, d int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	for i := range X {
		X[i] = make([]float64, d)
		for j := range X[i] {
			X[i][j] = rng.NormFloat64()
		}
	}
	return X
}

// TestFeatureBlockFromRows checks construction, accessors and the
// ragged-input rejection.
func TestFeatureBlockFromRows(t *testing.T) {
	rows := randVecs(3, 12, 9)
	b, err := FeatureBlockFromRows(rows)
	if err != nil {
		t.Fatalf("FeatureBlockFromRows: %v", err)
	}
	if b.Len() != len(rows) || b.Dim() != 9 {
		t.Fatalf("got %d×%d, want %d×9", b.Len(), b.Dim(), len(rows))
	}
	if b.Bytes() < 8*len(rows)*9 {
		t.Fatalf("Bytes() = %d, want >= %d", b.Bytes(), 8*len(rows)*9)
	}
	for i, r := range rows {
		got := b.Row(i)
		for j := range r {
			if got[j] != r[j] {
				t.Fatalf("Row(%d)[%d] = %v, want %v", i, j, got[j], r[j])
			}
		}
	}

	ragged := [][]float64{{1, 2}, {3}}
	if _, err := FeatureBlockFromRows(ragged); !errors.Is(err, ErrDim) {
		t.Fatalf("ragged rows: err = %v, want ErrDim", err)
	}

	empty, err := FeatureBlockFromRows(nil)
	if err != nil || empty.Len() != 0 {
		t.Fatalf("empty input: block %d rows, err %v", empty.Len(), err)
	}
}

// TestFeatureBlockAppend checks the append path: dimension adoption on
// an empty block, row indices, copy semantics and mismatch rejection.
func TestFeatureBlockAppend(t *testing.T) {
	b := NewFeatureBlock(3, 2)
	v := []float64{1, 2, 3}
	if id := b.Append(v); id != 0 {
		t.Fatalf("first Append = %d, want 0", id)
	}
	if id := b.Append([]float64{4, 5, 6}); id != 1 {
		t.Fatalf("second Append = %d, want 1", id)
	}
	if id := b.Append([]float64{7, 8}); id != -1 || b.Len() != 2 {
		t.Fatalf("mismatched Append = %d (len %d), want -1 (len 2)", id, b.Len())
	}
	// The row was copied: mutating the caller's slice must not show
	// through the view.
	v[0] = 99
	if b.Row(0)[0] != 1 {
		t.Fatalf("Append aliased the caller's slice")
	}

	// A zero-dim block adopts the first appended row's dimension.
	adopt := NewFeatureBlock(0, 0)
	if id := adopt.Append([]float64{1, 2}); id != 0 || adopt.Dim() != 2 {
		t.Fatalf("adoption: id %d dim %d, want 0, 2", id, adopt.Dim())
	}
	// Appending nothing to a fresh zero-dim block is refused.
	refuse := NewFeatureBlock(-1, -5)
	if id := refuse.Append(nil); id != -1 || refuse.Len() != 0 {
		t.Fatalf("nil Append on zero-dim block = %d (len %d), want -1 (len 0)", id, refuse.Len())
	}
}

// TestFeatureBlockDistsSerialIdentity pins the serial kernels'
// contract: SquaredDistTo and SquaredDistsTo are bitwise identical to
// SquaredDistance over the same rows.
func TestFeatureBlockDistsSerialIdentity(t *testing.T) {
	rows := randVecs(5, 30, 9)
	b, err := FeatureBlockFromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	q := randVecs(6, 1, 9)[0]
	batch := make([]float64, b.Len())
	b.SquaredDistsTo(q, batch)
	for i := range rows {
		want := SquaredDistance(rows[i], q)
		if got := b.SquaredDistTo(i, q); got != want {
			t.Fatalf("SquaredDistTo(%d) = %v, want bitwise %v", i, got, want)
		}
		if batch[i] != want {
			t.Fatalf("SquaredDistsTo[%d] = %v, want bitwise %v", i, batch[i], want)
		}
	}
}

// TestFeatureBlockDistsFast checks the unrolled variant agrees with
// the serial kernel up to reassociation rounding, across dimensions
// that exercise both the 4-wide body and the tail loop.
func TestFeatureBlockDistsFast(t *testing.T) {
	for _, dim := range []int{1, 3, 4, 7, 8, 9, 13} {
		rows := randVecs(int64(10+dim), 17, dim)
		b, err := FeatureBlockFromRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		q := randVecs(int64(100+dim), 1, dim)[0]
		fast := make([]float64, b.Len())
		b.SquaredDistsToFast(q, fast)
		for i := range rows {
			want := SquaredDistance(rows[i], q)
			if math.Abs(fast[i]-want) > 1e-9*(1+want) {
				t.Fatalf("dim %d: fast[%d] = %v, serial %v", dim, i, fast[i], want)
			}
		}
	}
}
