package assign

// Property tests: the Hungarian solver must match the brute-force
// optimum on every matrix small enough to enumerate.

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// costMatrix is a quick.Generator producing random all-finite
// rectangular matrices with 1–6 rows and columns, mixing magnitudes
// (including zeros and near-ties) to stress the potentials.
type costMatrix [][]float64

func (costMatrix) Generate(r *rand.Rand, _ int) reflect.Value {
	n, m := 1+r.Intn(6), 1+r.Intn(6)
	cm := make(costMatrix, n)
	for i := range cm {
		cm[i] = make([]float64, m)
		for j := range cm[i] {
			switch r.Intn(4) {
			case 0:
				cm[i][j] = float64(r.Intn(10)) // small ints: exact ties
			case 1:
				cm[i][j] = r.Float64() * 1000
			default:
				cm[i][j] = r.Float64() * 20
			}
		}
	}
	return reflect.ValueOf(cm)
}

// bruteForceOptimum enumerates every maximum-cardinality assignment
// of the (all-finite) matrix and returns the minimum total cost.
func bruteForceOptimum(cost [][]float64) float64 {
	n, m := len(cost), len(cost[0])
	// Assign every row when n ≤ m, else every column; recurse over the
	// smaller side with a used-mask over the larger.
	best := math.Inf(1)
	var rec func(i int, used uint, total float64)
	if n <= m {
		rec = func(i int, used uint, total float64) {
			if i == n {
				if total < best {
					best = total
				}
				return
			}
			if total >= best {
				return
			}
			for j := 0; j < m; j++ {
				if used&(1<<j) == 0 {
					rec(i+1, used|1<<j, total+cost[i][j])
				}
			}
		}
	} else {
		rec = func(j int, used uint, total float64) {
			if j == m {
				if total < best {
					best = total
				}
				return
			}
			if total >= best {
				return
			}
			for i := 0; i < n; i++ {
				if used&(1<<i) == 0 {
					rec(j+1, used|1<<i, total+cost[i][j])
				}
			}
		}
	}
	rec(0, 0, 0)
	return best
}

// TestQuickHungarianMatchesBruteForce: for every quick-generated
// matrix up to 6×6, the solver's total equals the enumerated optimum
// and the returned assignment is consistent (injective, within range,
// summing to the reported total). Complements the fixed-trial
// TestHungarianMatchesBruteForce in assign_test.go with
// testing/quick's shrinking-free but reproducible generation.
func TestQuickHungarianMatchesBruteForce(t *testing.T) {
	prop := func(cm costMatrix) bool {
		cost := [][]float64(cm)
		rows, total, err := Hungarian(cost)
		if err != nil {
			t.Logf("solver error: %v", err)
			return false
		}
		n, m := len(cost), len(cost[0])
		assigned, sum := 0, 0.0
		usedCol := make(map[int]bool, m)
		for i, j := range rows {
			if j == -1 {
				continue
			}
			if j < 0 || j >= m || usedCol[j] {
				t.Logf("row %d: illegal or duplicate column %d", i, j)
				return false
			}
			usedCol[j] = true
			assigned++
			sum += cost[i][j]
		}
		if want := min(n, m); assigned != want {
			t.Logf("assigned %d pairs, want %d", assigned, want)
			return false
		}
		const tol = 1e-6
		if math.Abs(sum-total) > tol*(1+math.Abs(total)) {
			t.Logf("reported total %v but assignment sums to %v", total, sum)
			return false
		}
		want := bruteForceOptimum(cost)
		if math.Abs(total-want) > tol*(1+math.Abs(want)) {
			t.Logf("total %v, brute-force optimum %v for %v", total, want, cost)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestHungarianForbiddenPairTable pins the Inf semantics the
// all-finite generator can't cover: forbidden pairs are never chosen,
// rows with no finite option stay unassigned, and the solver still
// minimizes over the feasible pairs.
func TestHungarianForbiddenPairTable(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		cost  [][]float64
		want  []int
		total float64
	}{
		// Forbidden diagonal forces the swap.
		{[][]float64{{inf, 1}, {1, inf}}, []int{1, 0}, 2},
		// Row 1 has no finite option: unassigned.
		{[][]float64{{5, 2}, {inf, inf}}, []int{1, -1}, 2},
		// Forbidding the greedy pick (0,0) reroutes both rows.
		{[][]float64{{inf, 2, 9}, {1, 4, 9}}, []int{1, 0}, 3},
		// All forbidden: nobody assigned.
		{[][]float64{{inf, inf}, {inf, inf}}, []int{-1, -1}, 0},
	}
	for i, tc := range cases {
		rows, total, err := Hungarian(tc.cost)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if len(rows) != len(tc.want) {
			t.Fatalf("case %d: got %v, want %v", i, rows, tc.want)
		}
		for r := range rows {
			if rows[r] != tc.want[r] {
				t.Fatalf("case %d: got %v, want %v", i, rows, tc.want)
			}
		}
		if math.Abs(total-tc.total) > 1e-9 {
			t.Fatalf("case %d: total %v, want %v", i, total, tc.total)
		}
	}
}
