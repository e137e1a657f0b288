package retrieval

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"milvideo/internal/mil"
	"milvideo/internal/window"
)

// rescoredRerankUnion is the oracle for the stored-order tail: the
// re-rank tail as it was before pruned rounds filtered a stored
// order. The remainder is scored on its own and ranked by
// rankByScore.
func rescoredRerankUnion(inner Engine, db []window.VS, labels map[int]mil.Label, candPos []int) ([]int, int, error) {
	in := make([]bool, len(db))
	for _, pos := range candPos {
		if pos >= 0 && pos < len(db) {
			in[pos] = true
		}
	}
	for pos, vs := range db {
		if _, ok := labels[vs.Index]; ok {
			in[pos] = true
		}
	}
	sub := make([]window.VS, 0, len(candPos)+4)
	subPos := make([]int, 0, len(candPos)+4)
	for pos := range db {
		if in[pos] {
			sub = append(sub, db[pos])
			subPos = append(subPos, pos)
		}
	}
	subRank, err := inner.Rank(sub, labels)
	if err != nil {
		return nil, 0, err
	}
	out := make([]int, 0, len(db))
	for _, r := range subRank {
		out = append(out, subPos[r])
	}
	rest := make([]int, 0, len(db)-len(sub))
	scores := make([]float64, 0, len(db)-len(sub))
	for pos := range db {
		if !in[pos] {
			rest = append(rest, pos)
			scores = append(scores, HeuristicScore(db[pos]))
		}
	}
	for _, ri := range rankByScore(scores) {
		out = append(out, rest[ri])
	}
	return out, len(sub), nil
}

// reverseEngine ranks any database back to front: a deterministic
// inner engine whose order has nothing to do with the heuristic one.
type reverseEngine struct{}

func (reverseEngine) Name() string { return "reverse" }

func (reverseEngine) Rank(db []window.VS, _ map[int]mil.Label) ([]int, error) {
	out := make([]int, len(db))
	for i := range out {
		out[i] = len(db) - 1 - i
	}
	return out, nil
}

// rerankValues are the feature values fuzzed bags draw from: repeats
// (equal vectors tie at one score), a value whose square overflows to
// +Inf, +Inf itself, and NaN (a NaN point score never wins the max).
var rerankValues = [16]float64{
	0, 0.5, 1, 1, 2, -2, 3, 0.25,
	math.Inf(1), 1e200, math.NaN(), -1, 1.5, 0, 2, -0.5,
}

// decodeRerankCase turns a fuzz input into a database, its labels and
// candidate positions. Byte 0 sets the bag count (at most 31); each
// of the next bytes describes one bag: bits 0–1 its TS count (0 makes
// an empty bag, which scores −Inf), bits 2–3 its label (none,
// positive, negative), bits 4–7 the rerankValues slot its vectors
// start at, so bags with the same high bits carry equal vectors. The
// remaining bytes are candidate positions in [−4, n+4): out of range
// on both sides, duplicates allowed. VS indices are 3·pos+1, so the
// label on index 0 always names a bag outside the database.
func decodeRerankCase(data []byte) ([]window.VS, map[int]mil.Label, []int) {
	if len(data) == 0 {
		return nil, nil, nil
	}
	n := min(int(data[0])%32, len(data)-1)
	db := make([]window.VS, n)
	labels := map[int]mil.Label{0: mil.Positive}
	for i := range db {
		b := data[1+i]
		vs := window.VS{Index: 3*i + 1}
		base := int(b >> 4)
		for k := 0; k < int(b&3); k++ {
			ts := window.TS{TrackID: k}
			for p := 0; p < 2; p++ {
				ts.Vectors = append(ts.Vectors, []float64{
					rerankValues[(base+k)%16], rerankValues[(base+p)%16],
				})
			}
			vs.TSs = append(vs.TSs, ts)
		}
		switch (b >> 2) & 3 {
		case 1:
			labels[vs.Index] = mil.Positive
		case 2:
			labels[vs.Index] = mil.Negative
		}
		db[i] = vs
	}
	var cands []int
	for _, c := range data[1+n:] {
		cands = append(cands, int(c)%(n+8)-4)
	}
	return db, labels, cands
}

// FuzzRerankUnionOrder holds the stored-order tail to its oracle:
// RerankUnion, and RerankUnionOrder with a stored HeuristicOrder, must
// both return exactly what re-scoring and re-sorting the remainder
// returned. The stored order is read only when a remainder exists,
// and an order of the wrong length then fails with ErrStaleIndex. The
// seed corpus doubles as the table test.
func FuzzRerankUnionOrder(f *testing.F) {
	for _, seed := range [][]byte{
		{0},                      // empty database
		{6, 0, 0, 0, 1, 1, 1},    // only empty bags: all tie at −Inf
		{6, 0, 0, 0, 1, 1, 1, 2}, // ... one of them a candidate
		{8, 0x11, 0x11, 0x11, 0x12, 0x21, 0x21, 0x01, 0x02, 3},                   // equal vectors tie
		{8, 0x81, 0x91, 0x81, 0x11, 0x92, 0x71, 0x01, 0x83, 4, 9},                // +Inf scores, overflow
		{8, 0xa1, 0xa2, 0x51, 0x55, 0x59, 0x65, 0x69, 0x11, 2, 3, 4},             // NaN points; labels in and out
		{7, 0x15, 0x29, 0x31, 0x45, 0x51, 0x69, 0x71, 1, 1, 0, 200, 14, 7, 3, 3}, // duplicates, out of range
		{4, 0x11, 0x21, 0x31, 0x41},                                              // empty union: no candidates, no labels
		{5, 0x11, 0x25, 0x39, 0x41, 0x51},                                        // no candidates: labeled union only
		{5, 0x11, 0x21, 0x31, 0x41, 0x51, 4, 5, 6, 7, 8},                         // union is the whole database
		{12, 0x13, 0x22, 0x31, 0x13, 0x00, 0x47, 0x81, 0x91, 0xa3, 0x15, 0x29, 0x01, 5, 9, 11, 0, 17, 22},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		db, labels, cands := decodeRerankCase(data)
		want, wantN, err := rescoredRerankUnion(reverseEngine{}, db, labels, cands)
		if err != nil {
			t.Fatal(err)
		}
		order := HeuristicOrder(db)
		called := false
		stored := func() []int { called = true; return order }
		for name, run := range map[string]func() ([]int, int, error){
			"computed": func() ([]int, int, error) { return RerankUnion(reverseEngine{}, db, labels, cands) },
			"stored":   func() ([]int, int, error) { return RerankUnionOrder(reverseEngine{}, db, labels, cands, stored) },
		} {
			got, gotN, err := run()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !slices.Equal(got, want) || gotN != wantN {
				t.Fatalf("%s: ranking %v (union %d), oracle %v (union %d)", name, got, gotN, want, wantN)
			}
		}
		if remainder := wantN < len(db); called != remainder {
			t.Fatalf("stored order read %v with a remainder %v", called, remainder)
		}
		stale := func() []int { return order[:len(order)/2] }
		_, _, err = RerankUnionOrder(reverseEngine{}, db, labels, cands, stale)
		switch {
		case wantN < len(db) && !errors.Is(err, ErrStaleIndex):
			t.Fatalf("order of %d for %d bags: got %v, want ErrStaleIndex", len(order)/2, len(db), err)
		case wantN == len(db) && err != nil:
			t.Fatalf("no remainder, yet the stale order failed the round: %v", err)
		}
	})
}

// identityEngine returns the database in its own order: the inner
// engine BenchmarkRerankUnion uses so only the tail is measured.
type identityEngine struct{}

func (identityEngine) Name() string { return "identity" }

func (identityEngine) Rank(db []window.VS, _ map[int]mil.Label) ([]int, error) {
	out := make([]int, len(db))
	for i := range out {
		out[i] = i
	}
	return out, nil
}

var rerankSink []int

// BenchmarkRerankUnion times the re-rank tail at archive shape:
// 48,000 bags and a 1,514-bag union, under a do-nothing inner engine.
// "stored" filters a stored HeuristicOrder, "computed" computes the
// order first (RerankUnion without one), and "rescored" re-scores and
// re-sorts the remainder, the tail before the order was stored.
func BenchmarkRerankUnion(b *testing.B) {
	db := candSynthDB(1, 48000)
	cands := rand.New(rand.NewSource(2)).Perm(len(db))[:1514]
	order := HeuristicOrder(db)
	for _, bc := range []struct {
		name string
		run  func() ([]int, int, error)
	}{
		{"stored", func() ([]int, int, error) {
			return RerankUnionOrder(identityEngine{}, db, nil, cands, func() []int { return order })
		}},
		{"computed", func() ([]int, int, error) { return RerankUnion(identityEngine{}, db, nil, cands) }},
		{"rescored", func() ([]int, int, error) { return rescoredRerankUnion(identityEngine{}, db, nil, cands) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, _, err := bc.run()
				if err != nil {
					b.Fatal(err)
				}
				rerankSink = out
			}
		})
	}
}

// candSynthDB builds a seeded synthetic VS database: mostly smooth
// traffic, a few accident-like spikes, 1–3 TSs per bag.
func candSynthDB(seed int64, n int) []window.VS {
	rng := rand.New(rand.NewSource(seed))
	db := make([]window.VS, n)
	for i := range db {
		vs := window.VS{Index: i, StartFrame: i * 15, EndFrame: i*15 + 10}
		spike := i%7 == 0
		for k := 0; k < 1+rng.Intn(3); k++ {
			ts := window.TS{TrackID: i*10 + k}
			for p := 0; p < 3; p++ {
				v := []float64{rng.Float64() * 0.1, rng.Float64() * 0.3, rng.Float64() * 0.1}
				if spike && k == 0 && p == 1 {
					v = []float64{0.4 + rng.Float64()*0.1, 2.5 + rng.Float64(), 1 + rng.Float64()*0.3}
				}
				ts.Vectors = append(ts.Vectors, v)
			}
			vs.TSs = append(vs.TSs, ts)
		}
		db[i] = vs
	}
	return db
}

// CandSynthDB exposes candSynthDB to the package's external tests.
var CandSynthDB = candSynthDB
