package retrieval

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"milvideo/internal/index"
	"milvideo/internal/mil"
	"milvideo/internal/rf"
	"milvideo/internal/window"
)

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

// candLabels labels the first few spike bags positive and a few
// others negative, as accumulated feedback would.
func candLabels(db []window.VS, nPos, nNeg int) map[int]mil.Label {
	labels := map[int]mil.Label{}
	for _, vs := range db {
		if vs.Index%7 == 0 && nPos > 0 {
			labels[vs.Index] = mil.Positive
			nPos--
		} else if vs.Index%7 == 3 && nNeg > 0 {
			labels[vs.Index] = mil.Negative
			nNeg--
		}
	}
	return labels
}

func wrappedEngines() []Engine {
	return []Engine{
		MILEngine{Opt: mil.DefaultOptions()},
		WeightedEngine{Norm: rf.NormPercentage},
		RocchioEngine{},
	}
}

// TestCandidateFullCIdentity: with C = N the candidate wrapper must
// reproduce the wrapped engine's ranking exactly — for every engine,
// both index kinds, several seeds and label mixes.
func TestCandidateFullCIdentity(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		db := candSynthDB(seed, 70)
		for _, kind := range index.Kinds() {
			bi, err := index.Build(db, kind, index.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, labels := range []map[int]mil.Label{
				{},                     // round 0: no feedback
				candLabels(db, 3, 0),   // positives only
				candLabels(db, 4, 4),   // mixed
				candLabels(db, 0, 5),   // negatives only
				candLabels(db, 100, 8), // every spike labeled
			} {
				for _, eng := range wrappedEngines() {
					want, err := eng.Rank(db, labels)
					if err != nil {
						t.Fatalf("seed %d %s: %v", seed, eng.Name(), err)
					}
					cand := CandidateEngine{Inner: eng, Index: bi, C: len(db)}
					got, err := cand.Rank(db, labels)
					if err != nil {
						t.Fatalf("seed %d %s: %v", seed, cand.Name(), err)
					}
					if len(got) != len(want) {
						t.Fatalf("seed %d %s %s: %d vs %d entries", seed, kind, eng.Name(), len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("seed %d %s %s labels=%d: rank diverges at %d: got %d want %d",
								seed, kind, eng.Name(), len(labels), i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestCandidatePrunedInvariants: with C < N the ranking is still a
// permutation, labeled bags are ranked by the wrapped engine (they
// always survive pruning), and the stats count the pruned round.
func TestCandidatePrunedInvariants(t *testing.T) {
	db := candSynthDB(4, 80)
	labels := candLabels(db, 4, 4)
	for _, kind := range index.Kinds() {
		bi, err := index.Build(db, kind, index.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range wrappedEngines() {
			stats := &CandidateStats{}
			cand := CandidateEngine{Inner: eng, Index: bi, C: 12, Stats: stats}
			got, err := cand.Rank(db, labels)
			if err != nil {
				t.Fatalf("%s: %v", cand.Name(), err)
			}
			seen := make([]bool, len(db))
			for _, p := range got {
				if p < 0 || p >= len(db) || seen[p] {
					t.Fatalf("%s %s: ranking not a permutation (pos %d)", kind, eng.Name(), p)
				}
				seen[p] = true
			}
			if len(got) != len(db) {
				t.Fatalf("%s %s: %d of %d positions", kind, eng.Name(), len(got), len(db))
			}
			// Every labeled bag sits in the re-ranked head, never in
			// the heuristic tail of pruned bags.
			head := make(map[int]bool)
			for i := 0; i < 12+len(labels); i++ {
				head[db[got[i]].Index] = true
			}
			for idx := range labels {
				if !head[idx] {
					t.Fatalf("%s %s: labeled VS %d fell out of the re-ranked head", kind, eng.Name(), idx)
				}
			}
			if stats.PrunedRounds.Load() != 1 || stats.Probes.Load() == 0 {
				t.Fatalf("%s %s: stats %+v after one pruned round", kind, eng.Name(), stats)
			}
			if ranked := stats.CandidatesRanked.Load(); ranked > int64(12+len(labels)) {
				t.Fatalf("%s %s: re-ranked %d bags, cap %d", kind, eng.Name(), ranked, 12+len(labels))
			}
		}
	}
}

// TestCandidateRoundZeroDelegates: with no positive labels there are
// no probes, so the wrapper must delegate wholesale (counted as a
// full round) — the initial heuristic query is never pruned.
func TestCandidateRoundZeroDelegates(t *testing.T) {
	db := candSynthDB(5, 40)
	bi, err := index.Build(db, index.KindVPTree, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := MILEngine{Opt: mil.DefaultOptions()}
	stats := &CandidateStats{}
	cand := CandidateEngine{Inner: eng, Index: bi, C: 8, Stats: stats}
	got, err := cand.Rank(db, map[int]mil.Label{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Rank(db, map[int]mil.Label{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round-0 rank diverges at %d", i)
		}
	}
	if stats.FullRounds.Load() != 1 || stats.PrunedRounds.Load() != 0 {
		t.Fatalf("round-0 stats %+v, want one full round", stats)
	}
}

// TestCandidateStaleIndex: an index built over a different database
// size must be rejected loudly, not silently misrank.
func TestCandidateStaleIndex(t *testing.T) {
	db := candSynthDB(6, 30)
	bi, err := index.Build(db[:20], index.KindIVF, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cand := CandidateEngine{Inner: RocchioEngine{}, Index: bi, C: 5}
	_, err = cand.Rank(db, candLabels(db, 2, 0))
	if err == nil {
		t.Fatal("stale index accepted")
	}
	// The typed sentinel is what lets live sessions distinguish a
	// losable race from a real failure.
	if !errors.Is(err, ErrStaleIndex) {
		t.Fatalf("stale index error %v does not wrap ErrStaleIndex", err)
	}
	if name := cand.Name(); name == "" {
		t.Fatal("empty engine name")
	}
}

// TestCandidateStaleGeneration: at steady retention a live commit
// evicts as many VSs as it appends, so an index updated to the next
// generation covers as many bags as the superseded database. A round
// ranked against the superseded database must fail with ErrStaleIndex
// instead of reading the new generation's positions as its own.
func TestCandidateStaleGeneration(t *testing.T) {
	db := candSynthDB(8, 120)
	old, cur := db[:100], db[20:]
	labels := map[int]mil.Label{49: mil.Positive}
	for _, kind := range index.Kinds() {
		bi, err := index.Build(old, kind, index.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bi.Update(cur); err != nil {
			t.Fatal(err)
		}
		cand := CandidateEngine{Inner: RocchioEngine{}, Index: bi, C: 5}
		if _, err := cand.Rank(old, labels); !errors.Is(err, ErrStaleIndex) {
			t.Fatalf("%s: ranking the superseded database returned %v, want ErrStaleIndex", kind, err)
		}
		ranking, err := cand.Rank(cur, labels)
		if err != nil {
			t.Fatalf("%s: current database: %v", kind, err)
		}
		if len(ranking) != len(cur) {
			t.Fatalf("%s: ranking of %d positions for %d bags", kind, len(ranking), len(cur))
		}
	}
}

// seedingEngine wraps an Engine with canned round-0 probes, standing
// in for a predicate query. (The identity test against the real
// predicate engine lives in predicate_seed_test.go, outside this
// package — predicate imports retrieval through query, so it cannot
// be imported here.)
type seedingEngine struct {
	Engine
	probes [][]float64
}

func (s seedingEngine) SeedProbes([]window.VS) [][]float64 { return s.probes }

// TestCandidateSeededIdentity: the C=N identity extends to seeded
// sessions — with no feedback at all, a probe-seeding engine at C=N
// must reproduce its own unwrapped ranking, whether it seeds as the
// inner engine or through the explicit Seeder field.
func TestCandidateSeededIdentity(t *testing.T) {
	db := candSynthDB(7, 60)
	probes := [][]float64{db[0].TSs[0].Flat(), db[7].TSs[0].Flat()}
	for _, kind := range index.Kinds() {
		bi, err := index.Build(db, kind, index.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, inner := range wrappedEngines() {
			want, err := inner.Rank(db, map[int]mil.Label{})
			if err != nil {
				t.Fatal(err)
			}
			seeded := seedingEngine{Engine: inner, probes: probes}
			for name, cand := range map[string]CandidateEngine{
				"inner-seeder":    {Inner: seeded, Index: bi, C: len(db)},
				"explicit-seeder": {Inner: inner, Seeder: seeded, Index: bi, C: len(db)},
			} {
				got, err := cand.Rank(db, map[int]mil.Label{})
				if err != nil {
					t.Fatalf("%s %s %s: %v", kind, inner.Name(), name, err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s %s %s: seeded C=N rank diverges at %d: got %d want %d",
							kind, inner.Name(), name, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestCandidateSeededPrunes: below C=N a seeder turns the previously
// full round 0 into a pruned one — counted as seeded, still a
// permutation, with the probes' own bags surviving into the re-ranked
// head.
func TestCandidateSeededPrunes(t *testing.T) {
	db := candSynthDB(8, 60)
	bi, err := index.Build(db, index.KindVPTree, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inner := MILEngine{Opt: mil.DefaultOptions()}
	stats := &CandidateStats{}
	cand := CandidateEngine{
		Inner:  inner,
		Seeder: seedingEngine{Engine: inner, probes: [][]float64{db[0].TSs[0].Flat()}},
		Index:  bi, C: 10, Stats: stats,
	}
	got, err := cand.Rank(db, map[int]mil.Label{})
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, len(db))
	for _, p := range got {
		if p < 0 || p >= len(db) || seen[p] {
			t.Fatalf("seeded ranking not a permutation (pos %d)", p)
		}
		seen[p] = true
	}
	if stats.SeededRounds.Load() != 1 || stats.PrunedRounds.Load() != 1 || stats.FullRounds.Load() != 0 {
		t.Fatalf("seeded round stats %+v, want one seeded pruned round", stats)
	}
	head := got[:10]
	found := false
	for _, p := range head {
		if p == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("probe's own bag missing from the pruned head %v", head)
	}
	// A seeder returning nothing must leave the full-delegation
	// behaviour untouched.
	cand.Seeder = seedingEngine{Engine: inner}
	if _, err := cand.Rank(db, map[int]mil.Label{}); err != nil {
		t.Fatal(err)
	}
	if stats.FullRounds.Load() != 1 {
		t.Fatalf("empty seeder did not delegate: %+v", stats)
	}
}

// TestCandidateStoredOrder: a pruned round that filters a stored
// heuristic order ranks exactly as one that computes the order, for
// every engine and both index kinds. Only pruned rounds read the
// order — round 0 without probes and C = N delegate without it — and
// an order of the wrong length fails the round with ErrStaleIndex.
func TestCandidateStoredOrder(t *testing.T) {
	db := candSynthDB(9, 80)
	order := HeuristicOrder(db)
	for _, kind := range index.Kinds() {
		bi, err := index.Build(db, kind, index.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range wrappedEngines() {
			for _, tc := range []struct {
				labels map[int]mil.Label
				c      int
				reads  int
			}{
				{candLabels(db, 3, 3), 12, 1},
				{candLabels(db, 3, 3), len(db), 0},
				{map[int]mil.Label{}, 12, 0},
			} {
				reads := 0
				stored := CandidateEngine{Inner: eng, Index: bi, C: tc.c, Order: func() []int { reads++; return order }}
				got, err := stored.Rank(db, tc.labels)
				if err != nil {
					t.Fatal(err)
				}
				want, err := CandidateEngine{Inner: eng, Index: bi, C: tc.c}.Rank(db, tc.labels)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s %s C=%d: stored-order ranking diverges from the computed one", kind, eng.Name(), tc.c)
				}
				if reads != tc.reads {
					t.Fatalf("%s %s C=%d labels=%d: stored order read %d times, want %d",
						kind, eng.Name(), tc.c, len(tc.labels), reads, tc.reads)
				}
			}
			stale := CandidateEngine{Inner: eng, Index: bi, C: 12, Order: func() []int { return order[:len(order)-1] }}
			if _, err := stale.Rank(db, candLabels(db, 3, 3)); !errors.Is(err, ErrStaleIndex) {
				t.Fatalf("%s %s: order of %d bags for %d: got %v, want ErrStaleIndex", kind, eng.Name(), len(order)-1, len(db), err)
			}
		}
	}
}
