package index

import (
	"math"
	"slices"
)

// nbLess is the (Dist, Idx) ascending order every search result is
// defined by. Point indices are unique within one search, so the order
// is total and any correct sort or select yields the same answer. NaN
// distances order first, as cmp.Compare puts them, so the order stays
// total whatever the input. Plain comparisons keep it cheap: it is the
// inner loop of every select.
func nbLess(a, b Neighbor) bool {
	if a.Dist < b.Dist {
		return true
	}
	if a.Dist == b.Dist {
		return a.Idx < b.Idx
	}
	return a.Dist != a.Dist && (b.Dist == b.Dist || a.Idx < b.Idx)
}

// cmpNeighbor is nbLess as a three-way comparison.
func cmpNeighbor(a, b Neighbor) int {
	switch {
	case nbLess(a, b):
		return -1
	case nbLess(b, a):
		return 1
	}
	return 0
}

// sortNeighbors puts a search result into the sorted contract of the
// public KNN and Search functions.
func sortNeighbors(res []Neighbor) { slices.SortFunc(res, cmpNeighbor) }

// kBest collects the k nearest neighbors of one search without a
// heap. A point enters the buffer unless it is worse, by (Dist, Idx),
// than the current k-th; when the buffer first holds k points, and
// again whenever it reaches 2k, it is quickselected back to its k
// best and the k-th is refreshed. An admission costs one comparison,
// and the selects amortize to O(1) per admitted point.
//
// The k-th a search prunes by therefore lags the true k-th of the
// points seen so far by up to k admissions. It is never smaller than
// that true k-th, so pruning by it stays sound and the final result is
// exactly the k best of all points offered.
type kBest struct {
	k int
	// buf holds the admitted points; a search starts it empty, over
	// a scratch slice's storage when it has one.
	buf []Neighbor
	// kth is the k-th best of buf as of the last select; valid once
	// full.
	kth  Neighbor
	full bool
}

// push offers one point and reports whether the k-th moved (it only
// ever moves closer).
func (b *kBest) push(idx int, d float64) bool {
	n := Neighbor{Idx: idx, Dist: d}
	if b.full && nbLess(b.kth, n) {
		return false
	}
	b.buf = append(b.buf, n)
	if len(b.buf) == 2*b.k || (!b.full && len(b.buf) == b.k) {
		b.shrink()
		return true
	}
	return false
}

// shrink keeps the k best points and records the k-th of them.
func (b *kBest) shrink() {
	selectK(b.buf, b.k)
	b.buf = b.buf[:b.k]
	b.kth = b.buf[b.k-1]
	b.full = true
}

// result returns the k best points offered, unsorted, and the
// distance of the k-th of them (+Inf when fewer than k were offered).
// The slice aliases buf.
func (b *kBest) result() ([]Neighbor, float64) {
	if len(b.buf) > b.k {
		b.shrink()
	}
	if !b.full {
		return b.buf, math.Inf(1)
	}
	return b.buf, b.kth.Dist
}

// selectK reorders s so that s[:k] holds its k smallest elements by
// nbLess with the largest of them at s[k-1], and everything after
// s[k-1] orders after it. 1 <= k <= len(s). It is a quickselect over
// Hoare partitions around a median-of-three pivot.
func selectK(s []Neighbor, k int) {
	lo, hi, target := 0, len(s)-1, k-1
	// Invariant: lo <= target <= hi, everything before lo orders
	// before s[lo:hi+1] and everything after hi orders after it.
	for lo < hi {
		mid := lo + (hi-lo)/2
		if nbLess(s[mid], s[lo]) {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if nbLess(s[hi], s[lo]) {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if nbLess(s[hi], s[mid]) {
			s[hi], s[mid] = s[mid], s[hi]
		}
		// s[lo] <= pivot <= s[hi] bound both scans below.
		pivot := s[mid]
		i, j := lo, hi
		for i <= j {
			for nbLess(s[i], pivot) {
				i++
			}
			for nbLess(pivot, s[j]) {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		// Now s[lo:j+1] <= pivot <= s[i:hi+1]; anything between is the
		// pivot itself, already in place.
		switch {
		case target <= j:
			hi = j
		case target >= i:
			lo = i
		default:
			return
		}
	}
}
