// Package assign solves the rectangular linear assignment problem that
// the tracker uses for frame-to-frame data association: given a cost
// matrix between existing tracks and newly detected segments, find the
// minimum-cost one-to-one matching.
//
// Hungarian solves it optimally in O(n³) (Jonker-style shortest
// augmenting path).
package assign

import (
	"errors"
	"fmt"
	"math"
)

// ErrShape is returned for malformed cost matrices.
var ErrShape = errors.New("assign: malformed cost matrix")

// Hungarian returns the minimum-cost assignment for the given cost
// matrix. cost[i][j] is the cost of assigning row i to column j; all
// rows must have equal length. The matrix may be rectangular — when
// rows > cols some rows stay unassigned (and vice versa). The result
// maps each row index to its column, with -1 for unassigned rows.
// Costs of math.Inf(1) mark forbidden pairs; a row whose finite
// options are exhausted stays unassigned.
func Hungarian(cost [][]float64) (rowToCol []int, total float64, err error) {
	n := len(cost)
	if n == 0 {
		return nil, 0, nil
	}
	m := len(cost[0])
	for i, row := range cost {
		if len(row) != m {
			return nil, 0, fmt.Errorf("%w: row %d has %d columns, want %d", ErrShape, i, len(row), m)
		}
		for j, c := range row {
			if math.IsNaN(c) {
				return nil, 0, fmt.Errorf("%w: NaN cost at (%d,%d)", ErrShape, i, j)
			}
		}
	}
	if m == 0 {
		out := make([]int, n)
		for i := range out {
			out[i] = -1
		}
		return out, 0, nil
	}

	// Pad to a square size×size matrix with a large finite cost for
	// dummy cells, so the shortest-augmenting-path routine can assume
	// a perfect matching exists. Forbidden (infinite) real pairs use a
	// cost above every finite entry but below the practical ceiling,
	// and are filtered from the result afterwards.
	size := n
	if m > size {
		size = m
	}
	maxFinite := 0.0
	for _, row := range cost {
		for _, c := range row {
			if !math.IsInf(c, 0) && math.Abs(c) > maxFinite {
				maxFinite = math.Abs(c)
			}
		}
	}
	big := (maxFinite + 1) * float64(size+1)
	a := make([][]float64, size)
	for i := range a {
		a[i] = make([]float64, size)
		for j := range a[i] {
			switch {
			case i < n && j < m && !math.IsInf(cost[i][j], 0):
				a[i][j] = cost[i][j]
			default:
				a[i][j] = big
			}
		}
	}

	// Shortest augmenting path (a.k.a. the JV variant of the Hungarian
	// method) with potentials u, v. Indices are 1-based internally,
	// following the classic formulation.
	u := make([]float64, size+1)
	v := make([]float64, size+1)
	p := make([]int, size+1) // p[j] = row matched to column j
	way := make([]int, size+1)
	for i := 1; i <= size; i++ {
		p[0] = i
		j0 := 0
		minv := make([]float64, size+1)
		used := make([]bool, size+1)
		for j := range minv {
			minv[j] = math.Inf(1)
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := math.Inf(1)
			j1 := 0
			for j := 1; j <= size; j++ {
				if used[j] {
					continue
				}
				cur := a[i0-1][j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= size; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}

	rowToCol = make([]int, n)
	for i := range rowToCol {
		rowToCol[i] = -1
	}
	for j := 1; j <= size; j++ {
		i := p[j] - 1
		if i < 0 || i >= n || j-1 >= m {
			continue // dummy row or column
		}
		if math.IsInf(cost[i][j-1], 0) {
			continue // forbidden pair landed on a dummy-cost cell
		}
		rowToCol[i] = j - 1
		total += cost[i][j-1]
	}
	return rowToCol, total, nil
}
