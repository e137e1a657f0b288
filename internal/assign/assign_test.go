package assign

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestHungarianSquareOptimal(t *testing.T) {
	cost := [][]float64{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	}
	rows, total, err := Hungarian(cost)
	if err != nil {
		t.Fatal(err)
	}
	// Optimal: r0→c1 (1), r1→c0 (2), r2→c2 (2) = 5.
	if total != 5 {
		t.Fatalf("total = %v, assignment %v", total, rows)
	}
	if rows[0] != 1 || rows[1] != 0 || rows[2] != 2 {
		t.Fatalf("assignment %v", rows)
	}
}

func TestHungarianRectangularMoreRows(t *testing.T) {
	cost := [][]float64{
		{1, 10},
		{10, 1},
		{5, 5},
	}
	rows, total, err := Hungarian(cost)
	if err != nil {
		t.Fatal(err)
	}
	if total != 2 {
		t.Fatalf("total = %v (%v)", total, rows)
	}
	unassigned := 0
	for _, c := range rows {
		if c == -1 {
			unassigned++
		}
	}
	if unassigned != 1 || rows[2] != -1 {
		t.Fatalf("expected row 2 unassigned: %v", rows)
	}
}

func TestHungarianRectangularMoreCols(t *testing.T) {
	cost := [][]float64{
		{7, 2, 9, 1},
	}
	rows, total, err := Hungarian(cost)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0] != 3 || total != 1 {
		t.Fatalf("rows=%v total=%v", rows, total)
	}
}

func TestHungarianForbiddenPairs(t *testing.T) {
	inf := math.Inf(1)
	cost := [][]float64{
		{inf, 3},
		{2, inf},
	}
	rows, total, err := Hungarian(cost)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0] != 1 || rows[1] != 0 || total != 5 {
		t.Fatalf("rows=%v total=%v", rows, total)
	}
	// All pairs forbidden for a row: it stays unassigned.
	cost2 := [][]float64{
		{inf, inf},
		{1, 2},
	}
	rows2, _, err := Hungarian(cost2)
	if err != nil {
		t.Fatal(err)
	}
	if rows2[0] != -1 {
		t.Fatalf("forbidden row assigned: %v", rows2)
	}
	if rows2[1] != 0 {
		t.Fatalf("row 1 should take its cheapest: %v", rows2)
	}
}

func TestHungarianEdgeShapes(t *testing.T) {
	rows, total, err := Hungarian(nil)
	if err != nil || rows != nil || total != 0 {
		t.Fatalf("nil input: %v %v %v", rows, total, err)
	}
	rows, _, err = Hungarian([][]float64{{}, {}})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0] != -1 || rows[1] != -1 {
		t.Fatalf("zero columns: %v", rows)
	}
	if _, _, err := Hungarian([][]float64{{1, 2}, {3}}); !errors.Is(err, ErrShape) {
		t.Fatalf("ragged: %v", err)
	}
	if _, _, err := Hungarian([][]float64{{math.NaN()}}); !errors.Is(err, ErrShape) {
		t.Fatalf("NaN: %v", err)
	}
}

// bruteForce finds the optimal assignment cost by enumerating every
// injection from the smaller side into the larger (n, m ≤ 6).
func bruteForce(cost [][]float64) float64 {
	n, m := len(cost), len(cost[0])
	at := func(i, j int) float64 { return cost[i][j] }
	small, large := n, m
	if m < n {
		small, large = m, n
		at = func(i, j int) float64 { return cost[j][i] }
	}
	best := math.Inf(1)
	used := make([]bool, large)
	var rec func(k int, total float64)
	rec = func(k int, total float64) {
		if k == small {
			if total < best {
				best = total
			}
			return
		}
		for j := 0; j < large; j++ {
			if used[j] {
				continue
			}
			used[j] = true
			rec(k+1, total+at(k, j))
			used[j] = false
		}
	}
	rec(0, 0)
	return best
}

func TestHungarianMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(5)
		m := 1 + rng.Intn(5)
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, m)
			for j := range cost[i] {
				cost[i][j] = math.Round(rng.Float64()*100) / 10
			}
		}
		rows, total, err := Hungarian(cost)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForce(cost)
		if math.Abs(total-want) > 1e-9 {
			t.Fatalf("trial %d: hungarian %v vs brute force %v (cost=%v rows=%v)",
				trial, total, want, cost, rows)
		}
		// Validity: no column assigned twice; assigned count = min(n,m).
		seen := map[int]bool{}
		cnt := 0
		for _, c := range rows {
			if c == -1 {
				continue
			}
			if seen[c] {
				t.Fatalf("column %d assigned twice: %v", c, rows)
			}
			seen[c] = true
			cnt++
		}
		min := n
		if m < min {
			min = m
		}
		if cnt != min {
			t.Fatalf("assigned %d pairs, want %d", cnt, min)
		}
	}
}

func BenchmarkHungarian20x20(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cost := make([][]float64, 20)
	for i := range cost {
		cost[i] = make([]float64, 20)
		for j := range cost[i] {
			cost[i][j] = rng.Float64() * 100
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Hungarian(cost); err != nil {
			b.Fatal(err)
		}
	}
}
