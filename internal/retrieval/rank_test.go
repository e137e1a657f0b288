package retrieval

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"milvideo/internal/mil"
	"milvideo/internal/window"
)

// stableRankRef is the reference rankByScore is held to: descending
// score under a stable sort, so ties keep ascending index.
func stableRankRef(scores []float64) []int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	return idx
}

// TestRankByScoreMatchesStableSort: on NaN-free scores — tie-heavy,
// with ±Inf and both zeros — the typed total order reproduces the
// stable reflection sort exactly.
func TestRankByScoreMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	values := []float64{math.Inf(-1), -1, math.Copysign(0, -1), 0, 0.5, 1, math.Inf(1)}
	for trial := 0; trial < 200; trial++ {
		scores := make([]float64, rng.Intn(300))
		for i := range scores {
			if trial%4 == 3 {
				scores[i] = rng.NormFloat64()
			} else {
				scores[i] = values[rng.Intn(len(values))]
			}
		}
		got, want := rankByScore(scores), stableRankRef(scores)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: rank %d = %d, stable sort says %d", trial, i, got[i], want[i])
			}
		}
	}
}

// TestRankByScoreNaNLast: NaN scores rank after −Inf, in ascending
// index order, and the rest keep their NaN-free order.
func TestRankByScoreNaNLast(t *testing.T) {
	nan := math.NaN()
	scores := []float64{nan, 1, math.Inf(-1), nan, 2, math.Inf(-1), 1, nan}
	want := []int{4, 1, 6, 2, 5, 0, 3, 7}
	got := rankByScore(scores)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ranking %v, want %v", got, want)
		}
	}
}

// TestValidateDBPaths covers both the bitmap path (indices in [0, 2N))
// and the map fallback (an index outside it), each with and without a
// duplicate, and the duplicate is named in the typed error.
func TestValidateDBPaths(t *testing.T) {
	mk := func(indices ...int) []window.VS {
		db := make([]window.VS, len(indices))
		for i, idx := range indices {
			db[i] = window.VS{Index: idx}
		}
		return db
	}
	for _, c := range []struct {
		name    string
		db      []window.VS
		dupOf   int
		invalid bool
	}{
		{"dense", mk(0, 1, 2, 3), 0, false},
		{"sparse within 2N", mk(7, 0, 5, 2), 0, false},
		{"dense duplicate", mk(0, 3, 1, 3), 3, true},
		{"duplicate at bitmap word edge", mk(63, 64, 65, 64, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33), 64, true},
		{"high bits of a word", mk(1, 33, 40, 63, 0, 32, 2, 31, 62, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30), 0, false},
		{"duplicate in high bits", mk(40, 5, 40, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28), 40, true},
		{"negative index", mk(2, -1, 0), 0, false},
		{"large index", mk(0, 1, 1<<40), 0, false},
		{"duplicate before an outlier", mk(1, 1, 9000), 1, true},
		{"duplicate after an outlier", mk(-5, 4, 4), 4, true},
		{"duplicate outlier", mk(9000, 0, 9000), 9000, true},
	} {
		err := ValidateDB(c.db)
		if !c.invalid {
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			continue
		}
		if !errors.Is(err, ErrDuplicateIndex) {
			t.Fatalf("%s: got %v, want ErrDuplicateIndex", c.name, err)
		}
		if want := ": " + strconv.Itoa(c.dupOf); !strings.HasSuffix(err.Error(), want) {
			t.Fatalf("%s: error %q does not name VS %d", c.name, err, c.dupOf)
		}
	}
	if err := ValidateDB(nil); !errors.Is(err, ErrEmptyDB) {
		t.Fatalf("empty db: %v", err)
	}
}

// TestMILRankPositiveBagsOnly: training on the positive bags alone
// ranks exactly as training on every bag of the database did (Train
// skips the others), and without a positive VS holding a TS the engine
// falls back to the heuristic order before building anything.
func TestMILRankPositiveBagsOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db, rel := synthDB(rng, 4, 4, 30)
	db = append(db, window.VS{Index: len(db)}) // an empty VS
	empty := db[len(db)-1].Index
	// allBagsRank trains on every bag of db: the reference that
	// training on the positive bags alone must match.
	allBagsRank := func(labels map[int]mil.Label) []int {
		var training []mil.Bag
		for _, vs := range db {
			training = append(training, toBag(vs, labels[vs.Index], 0.5))
		}
		learner, err := mil.Train(training, mil.DefaultOptions())
		if errors.Is(err, mil.ErrNoPositiveBags) {
			return HeuristicOrder(db)
		}
		if err != nil {
			t.Fatal(err)
		}
		scores := make([]float64, len(db))
		for i, vs := range db {
			s, ok, err := learner.BagScore(toBag(vs, labels[vs.Index], 0))
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				s = math.Inf(-1)
			}
			scores[i] = s
		}
		return rankByScore(scores)
	}
	mixed := map[int]mil.Label{empty: mil.Positive}
	for idx := range rel {
		mixed[idx] = mil.Positive
	}
	for i := 10; i < 16; i++ {
		mixed[db[i].Index] = mil.Negative
	}
	for name, labels := range map[string]map[int]mil.Label{
		"none":           {},
		"negatives only": {db[8].Index: mil.Negative, db[20].Index: mil.Negative},
		"empty positive": {empty: mil.Positive, db[8].Index: mil.Negative},
		"mixed":          mixed,
	} {
		got, err := MILEngine{Opt: mil.DefaultOptions()}.Rank(db, labels)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := allBagsRank(labels)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: rank %d = %d, all-bags training says %d", name, i, got[i], want[i])
			}
		}
	}
}
