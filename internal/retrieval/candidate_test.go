// The pruned-ranking contract — a candidate index prunes the database
// to C bags, the wrapped engine re-ranks them plus every labeled bag
// (RerankUnionOrder), the remainder keeps the §5.3 heuristic order —
// checked on the engine every unsharded indexed session runs: a
// shard.Engine with one LocalProber over the whole database (S = 1).
// This lives outside package retrieval because shard imports it.
package retrieval_test

import (
	"errors"
	"slices"
	"testing"

	"milvideo/internal/dd"
	"milvideo/internal/index"
	"milvideo/internal/mil"
	"milvideo/internal/misvm"
	"milvideo/internal/retrieval"
	"milvideo/internal/rf"
	"milvideo/internal/shard"
	"milvideo/internal/window"
)

var candSynthDB = retrieval.CandSynthDB

// wholeDB is the pruned engine an unsharded server builds: one shard
// over all of db and an index built over exactly it.
func wholeDB(inner retrieval.Engine, db []window.VS, bi *index.BagIndex, c int, st *shard.Stats) *shard.Engine {
	return &shard.Engine{Inner: inner, Probers: []shard.Prober{shard.LocalProber{VSs: db, Index: bi}}, C: c, Stats: st}
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

func wrappedEngines() []retrieval.Engine {
	return []retrieval.Engine{
		retrieval.MILEngine{Opt: mil.DefaultOptions()},
		retrieval.WeightedEngine{Norm: rf.NormPercentage},
		retrieval.RocchioEngine{},
	}
}

// TestCandidateFullCIdentity: with C = N the pruned engine must
// reproduce the wrapped engine's ranking exactly — for every engine,
// several seeds and label mixes. Rounds with
// positives scatter and reassemble the database through completion
// hits; rounds without delegate.
func TestCandidateFullCIdentity(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		db := candSynthDB(seed, 70)
		bi, err := index.Build(db, index.KindVPTree, index.Options{})
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
				cand := wholeDB(eng, db, bi, len(db), nil)
				got, err := cand.Rank(db, labels)
				if err != nil {
					t.Fatalf("seed %d %s: %v", seed, cand.Name(), err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d %s labels=%d: ranking diverges\ngot  %v\nwant %v",
						seed, eng.Name(), len(labels), got, want)
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
	bi, err := index.Build(db, index.KindVPTree, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range wrappedEngines() {
		stats := &shard.Stats{}
		cand := wholeDB(eng, db, bi, 12, stats)
		got, err := cand.Rank(db, labels)
		if err != nil {
			t.Fatalf("%s: %v", cand.Name(), err)
		}
		seen := make([]bool, len(db))
		for _, p := range got {
			if p < 0 || p >= len(db) || seen[p] {
				t.Fatalf("%s: ranking not a permutation (pos %d)", eng.Name(), p)
			}
			seen[p] = true
		}
		if len(got) != len(db) {
			t.Fatalf("%s: %d of %d positions", eng.Name(), len(got), len(db))
		}
		// Every labeled bag sits in the re-ranked head, never in
		// the heuristic tail of pruned bags.
		head := make(map[int]bool)
		for i := 0; i < 12+len(labels); i++ {
			head[db[got[i]].Index] = true
		}
		for idx := range labels {
			if !head[idx] {
				t.Fatalf("%s: labeled VS %d fell out of the re-ranked head", eng.Name(), idx)
			}
		}
		if stats.PrunedRounds.Load() != 1 || stats.FullRounds.Load() != 0 || stats.Probes.Load() == 0 {
			t.Fatalf("%s: pruned=%d full=%d probes=%d after one pruned round", eng.Name(),
				stats.PrunedRounds.Load(), stats.FullRounds.Load(), stats.Probes.Load())
		}
		if ranked := stats.CandidatesRanked.Load(); ranked < 12 || ranked > int64(12+len(labels)) {
			t.Fatalf("%s: re-ranked %d bags, want 12..%d", eng.Name(), ranked, 12+len(labels))
		}
	}
}

// TestCandidateRoundZeroDelegates: with no positive labels and no
// seeder there are no probes, so the engine must delegate wholesale
// (counted as a full round) — the initial heuristic query is never
// pruned.
func TestCandidateRoundZeroDelegates(t *testing.T) {
	db := candSynthDB(5, 40)
	bi, err := index.Build(db, index.KindVPTree, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := retrieval.MILEngine{Opt: mil.DefaultOptions()}
	stats := &shard.Stats{}
	got, err := wholeDB(eng, db, bi, 8, stats).Rank(db, map[int]mil.Label{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Rank(db, map[int]mil.Label{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatal("round-0 ranking diverges from the wrapped engine's")
	}
	if stats.FullRounds.Load() != 1 || stats.PrunedRounds.Load() != 0 {
		t.Fatalf("round-0 stats full=%d pruned=%d, want one full round", stats.FullRounds.Load(), stats.PrunedRounds.Load())
	}
}

// TestCandidateStaleIndex: an index built over a different database
// size must be rejected loudly with the typed sentinel, not silently
// misrank or degrade to a full rank.
func TestCandidateStaleIndex(t *testing.T) {
	db := candSynthDB(6, 30)
	bi, err := index.Build(db[:20], index.KindVPTree, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stats := &shard.Stats{}
	cand := wholeDB(retrieval.RocchioEngine{}, db, bi, 5, stats)
	_, err = cand.Rank(db, candLabels(db, 2, 0))
	// The typed sentinel is what lets live sessions distinguish a
	// losable race from a real failure.
	if !errors.Is(err, retrieval.ErrStaleIndex) {
		t.Fatalf("stale index: got %v, want ErrStaleIndex", err)
	}
	if stats.FullRounds.Load() != 0 || stats.ShardErrors.Load() != 0 {
		t.Fatalf("stale index counted as a lost shard: full=%d errors=%d", stats.FullRounds.Load(), stats.ShardErrors.Load())
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
	bi, err := index.Build(old, index.KindVPTree, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bi.Update(cur); err != nil {
		t.Fatal(err)
	}
	inner := retrieval.RocchioEngine{}
	if _, err := wholeDB(inner, old, bi, 5, nil).Rank(old, labels); !errors.Is(err, retrieval.ErrStaleIndex) {
		t.Fatalf("ranking the superseded database returned %v, want ErrStaleIndex", err)
	}
	ranking, err := wholeDB(inner, cur, bi, 5, nil).Rank(cur, labels)
	if err != nil {
		t.Fatalf("current database: %v", err)
	}
	if len(ranking) != len(cur) {
		t.Fatalf("ranking of %d positions for %d bags", len(ranking), len(cur))
	}
}

// seedingEngine wraps an Engine with canned round-0 probes, standing
// in for a predicate query. (The identity test against the real
// predicate engine lives in predicate_seed_test.go.)
type seedingEngine struct {
	retrieval.Engine
	probes [][]float64
}

func (s seedingEngine) SeedProbes([]window.VS) [][]float64 { return s.probes }

// TestCandidateSeededIdentity: the C=N identity extends to seeded
// sessions — with no feedback at all, a probe-seeding engine at C=N
// must reproduce its own unwrapped ranking.
func TestCandidateSeededIdentity(t *testing.T) {
	db := candSynthDB(7, 60)
	probes := [][]float64{db[0].TSs[0].Flat(), db[7].TSs[0].Flat()}
	bi, err := index.Build(db, index.KindVPTree, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, inner := range wrappedEngines() {
		want, err := inner.Rank(db, map[int]mil.Label{})
		if err != nil {
			t.Fatal(err)
		}
		stats := &shard.Stats{}
		seeded := seedingEngine{Engine: inner, probes: probes}
		got, err := wholeDB(seeded, db, bi, len(db), stats).Rank(db, map[int]mil.Label{})
		if err != nil {
			t.Fatalf("%s: %v", inner.Name(), err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: seeded C=N ranking diverges\ngot  %v\nwant %v", inner.Name(), got, want)
		}
		if stats.SeededRounds.Load() != 1 || stats.PrunedRounds.Load() != 1 {
			t.Fatalf("%s: seeded=%d pruned=%d, want the C=N round seeded and pruned",
				inner.Name(), stats.SeededRounds.Load(), stats.PrunedRounds.Load())
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
	inner := retrieval.MILEngine{Opt: mil.DefaultOptions()}
	stats := &shard.Stats{}
	seeded := seedingEngine{Engine: inner, probes: [][]float64{db[0].TSs[0].Flat()}}
	got, err := wholeDB(seeded, db, bi, 10, stats).Rank(db, map[int]mil.Label{})
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
		t.Fatalf("seeded=%d pruned=%d full=%d, want one seeded pruned round",
			stats.SeededRounds.Load(), stats.PrunedRounds.Load(), stats.FullRounds.Load())
	}
	if !slices.Contains(got[:10], 0) {
		t.Fatalf("probe's own bag missing from the pruned head %v", got[:10])
	}
	// A seeder returning nothing must leave the full-delegation
	// behaviour untouched.
	if _, err := wholeDB(seedingEngine{Engine: inner}, db, bi, 10, stats).Rank(db, map[int]mil.Label{}); err != nil {
		t.Fatal(err)
	}
	if stats.FullRounds.Load() != 1 || stats.SeededRounds.Load() != 1 {
		t.Fatalf("empty seeder did not delegate: full=%d seeded=%d", stats.FullRounds.Load(), stats.SeededRounds.Load())
	}
}

// TestCandidateStoredOrder: a pruned round that filters a stored
// heuristic order ranks exactly as one that computes the order, for
// every engine. Rounds that leave a remainder
// read the order, and so does round 0 without probes when the engine
// falls back to it (an OrderRanker: MIL and Rocchio, not Weighted-RF,
// whose no-feedback ranking is its own weighted score); C = N rounds
// with probes do not. Round 0 returns a copy, so a caller writing
// into it leaves the next round 0 unchanged, and an order of the
// wrong length fails pruned rounds and round 0 alike with
// ErrStaleIndex.
func TestCandidateStoredOrder(t *testing.T) {
	db := candSynthDB(9, 80)
	order := retrieval.HeuristicOrder(db)
	want0 := slices.Clone(order)
	roundZeroReads := map[string]int{"MIL-OCSVM": 1, "Rocchio": 1}
	bi, err := index.Build(db, index.KindVPTree, index.Options{})
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
			{map[int]mil.Label{}, 12, roundZeroReads[eng.Name()]},
		} {
			reads := 0
			stored := wholeDB(eng, db, bi, tc.c, nil)
			stored.Order = func() []int { reads++; return order }
			got, err := stored.Rank(db, tc.labels)
			if err != nil {
				t.Fatal(err)
			}
			want, err := wholeDB(eng, db, bi, tc.c, nil).Rank(db, tc.labels)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s C=%d: stored-order ranking diverges from the computed one", eng.Name(), tc.c)
			}
			if reads != tc.reads {
				t.Fatalf("%s C=%d labels=%d: stored order read %d times, want %d",
					eng.Name(), tc.c, len(tc.labels), reads, tc.reads)
			}
			if len(tc.labels) == 0 {
				slices.Reverse(got)
				again, err := stored.Rank(db, tc.labels)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(again, want) || !slices.Equal(order, want0) {
					t.Fatalf("%s: writing into a round-0 ranking changed the next round 0", eng.Name())
				}
			}
		}
		stale := wholeDB(eng, db, bi, 12, nil)
		stale.Order = func() []int { return order[:len(order)-1] }
		if _, err := stale.Rank(db, candLabels(db, 3, 3)); !errors.Is(err, retrieval.ErrStaleIndex) {
			t.Fatalf("%s: order of %d bags for %d: got %v, want ErrStaleIndex", eng.Name(), len(order)-1, len(db), err)
		}
		switch _, err := stale.Rank(db, map[int]mil.Label{}); {
		case roundZeroReads[eng.Name()] == 0 && err != nil:
			t.Fatalf("%s round 0 never reads the order, yet failed: %v", eng.Name(), err)
		case roundZeroReads[eng.Name()] > 0 && !errors.Is(err, retrieval.ErrStaleIndex):
			t.Fatalf("%s round 0: order of %d bags for %d: got %v, want ErrStaleIndex", eng.Name(), len(order)-1, len(db), err)
		}
	}
}

// TestOrderRankerFallback: every registry engine whose no-feedback
// ranking is the §5.3 order ranks the same through a stored order as
// through Rank, and reads the order exactly when it falls back: in
// round 0, and for MI-SVM also while no negative label exists. A
// fallback allocates only its copy of the order: an engine must see
// that it will fall back before it builds any bag. A stored order of
// the wrong length fails round 0 with ErrStaleIndex.
func TestOrderRankerFallback(t *testing.T) {
	db := candSynthDB(5, 40)
	order := retrieval.HeuristicOrder(db)
	stored := func() []int { return order }
	labelSets := []map[int]mil.Label{{}, candLabels(db, 3, 0), candLabels(db, 3, 3)}
	for _, tc := range []struct {
		eng interface {
			retrieval.Engine
			retrieval.OrderRanker
		}
		reads []int // per label set
	}{
		{retrieval.MILEngine{Opt: mil.DefaultOptions()}, []int{1, 0, 0}},
		{retrieval.RocchioEngine{}, []int{1, 0, 0}},
		{dd.Engine{}, []int{1, 0, 0}},
		{misvm.Engine{Opt: misvm.Options{C: 2}}, []int{1, 1, 0}},
	} {
		for li, labels := range labelSets {
			want, err := tc.eng.Rank(db, labels)
			if err != nil {
				t.Fatal(err)
			}
			reads := 0
			got, err := tc.eng.RankOrder(db, labels, func() []int { reads++; return order })
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s labels %d: stored-order ranking diverges from Rank", tc.eng.Name(), li)
			}
			if reads != tc.reads[li] {
				t.Fatalf("%s labels %d: stored order read %d times, want %d", tc.eng.Name(), li, reads, tc.reads[li])
			}
			if reads == 0 {
				continue
			}
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := tc.eng.RankOrder(db, labels, stored); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 1 {
				t.Fatalf("%s labels %d: fallback made %.0f allocations, want 1 (the copy of the order)", tc.eng.Name(), li, allocs)
			}
		}
		if _, err := tc.eng.RankOrder(db, labelSets[0], func() []int { return order[1:] }); !errors.Is(err, retrieval.ErrStaleIndex) {
			t.Fatalf("%s round 0: order of %d bags for %d: got %v, want ErrStaleIndex", tc.eng.Name(), len(order)-1, len(db), err)
		}
	}
}

var roundZeroSink []int

// BenchmarkRoundZero times round 0 (no labels) of every engine whose
// no-feedback ranking is the §5.3 order, at archive shape (48,000
// bags): "stored" copies a stored HeuristicOrder, as an indexed
// session's round 0 does, and "computed" scores and sorts the catalog,
// as Rank does.
func BenchmarkRoundZero(b *testing.B) {
	db := candSynthDB(1, 48000)
	order := retrieval.HeuristicOrder(db)
	labels := map[int]mil.Label{}
	for _, eng := range []interface {
		retrieval.Engine
		retrieval.OrderRanker
	}{
		retrieval.MILEngine{Opt: mil.DefaultOptions()},
		dd.Engine{},
		misvm.Engine{Opt: misvm.Options{C: 2}},
	} {
		for _, bc := range []struct {
			name   string
			stored func() []int
		}{
			{"stored", func() []int { return order }},
			{"computed", nil},
		} {
			b.Run(eng.Name()+"/"+bc.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					out, err := eng.RankOrder(db, labels, bc.stored)
					if err != nil {
						b.Fatal(err)
					}
					roundZeroSink = out
				}
			})
		}
	}
}
