package shard

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"milvideo/internal/index"
	"milvideo/internal/mil"
	"milvideo/internal/retrieval"
	"milvideo/internal/rf"
	"milvideo/internal/window"
)

// shardLabels labels the first few spike bags positive and a few
// others negative, as accumulated feedback would.
func shardLabels(db []window.VS, nPos, nNeg int) map[int]mil.Label {
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

func shardEngines() []retrieval.Engine {
	return []retrieval.Engine{
		retrieval.MILEngine{Opt: mil.DefaultOptions()},
		retrieval.WeightedEngine{Norm: rf.NormPercentage},
		retrieval.RocchioEngine{},
	}
}

// buildProbers partitions db across s shards and builds one index
// per part.
func buildProbers(t *testing.T, db []window.VS, s int, kind index.Kind, opt index.Options) []Prober {
	t.Helper()
	parts := PartitionVS(NewRing(s), "clip", db)
	probers := make([]Prober, len(parts))
	for i, p := range parts {
		bi, err := index.Build(p.VSs, kind, opt)
		if err != nil {
			t.Fatal(err)
		}
		probers[i] = LocalProber{VSs: p.VSs, Pos: p.Pos, Index: bi}
	}
	return probers
}

// TestShardedFullCIdentity is the merge-contract property test: with
// C = N, scatter–gather over any shard count S ∈ {1,2,3,5} must be
// permutation-identical to the unsharded exact ranking — for all
// three engines, both index kinds, and several label mixes. The
// identity is proven through the real scatter path (every shard
// returns its full partition, completion hits included), not by a
// delegation shortcut.
func TestShardedFullCIdentity(t *testing.T) {
	db := shardSynthDB(1, 70)
	labelSets := []map[int]mil.Label{
		shardLabels(db, 3, 0),
		shardLabels(db, 4, 4),
		shardLabels(db, 100, 8),
	}
	for _, kind := range index.Kinds() {
		for _, s := range []int{1, 2, 3, 5} {
			probers := buildProbers(t, db, s, kind, index.Options{})
			for _, inner := range shardEngines() {
				eng := &Engine{Inner: inner, Probers: probers, C: len(db)}
				for li, labels := range labelSets {
					want, err := inner.Rank(db, labels)
					if err != nil {
						t.Fatal(err)
					}
					got, err := eng.RankCtx(context.Background(), db, labels)
					if err != nil {
						t.Fatalf("kind=%s S=%d engine=%s labels=%d: %v", kind, s, inner.Name(), li, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("kind=%s S=%d engine=%s labels=%d: sharded C=N ranking diverges\ngot  %v\nwant %v",
							kind, s, inner.Name(), li, got, want)
					}
				}
				// The identity must flow through the scatter path, not a
				// full-rank delegation.
				if eng.Stats != nil {
					t.Fatal("unexpected stats")
				}
			}
		}
	}
}

// TestShardedScatterPathUsed pins that C=N rounds with positive
// labels actually scatter (PrunedRounds, not FullRounds) and re-rank
// the whole reassembled database.
func TestShardedScatterPathUsed(t *testing.T) {
	db := shardSynthDB(2, 56)
	probers := buildProbers(t, db, 3, index.KindVPTree, index.Options{})
	st := &Stats{}
	eng := &Engine{Inner: retrieval.RocchioEngine{}, Probers: probers, C: len(db), Stats: st}
	if _, err := eng.Rank(db, shardLabels(db, 3, 1)); err != nil {
		t.Fatal(err)
	}
	if st.PrunedRounds.Load() != 1 || st.FullRounds.Load() != 0 {
		t.Fatalf("pruned=%d full=%d, want 1/0", st.PrunedRounds.Load(), st.FullRounds.Load())
	}
	if st.CandidatesRanked.Load() != int64(len(db)) {
		t.Fatalf("C=N re-ranked %d candidates, want %d", st.CandidatesRanked.Load(), len(db))
	}
	// Round 0 (no positives) must delegate to the inner engine.
	if _, err := eng.Rank(db, map[int]mil.Label{}); err != nil {
		t.Fatal(err)
	}
	if st.FullRounds.Load() != 1 {
		t.Fatalf("round 0 did not delegate: full=%d", st.FullRounds.Load())
	}
}

// demoMixDB mirrors the server demo catalog's feature distribution
// (accident-spike relevant bags, deceleration-only distractors,
// smooth normal traffic — the mix every recall gate in this repo is
// calibrated on). Relevance ground truth is positional: the first
// nRel bags are the accidents.
func demoMixDB(seed int64, nRel, nDis, nNorm int) ([]window.VS, int) {
	rng := rand.New(rand.NewSource(seed))
	n3 := func(scale float64) []float64 {
		return []float64{
			math.Abs(rng.NormFloat64()) * 0.03 * scale,
			math.Abs(rng.NormFloat64()) * 0.1 * scale,
			math.Abs(rng.NormFloat64()) * 0.05 * scale,
		}
	}
	normalTS := func(id int) window.TS {
		s := 1 + rng.Float64()*5
		return window.TS{TrackID: id, Vectors: [][]float64{n3(s), n3(s), n3(s)}}
	}
	var db []window.VS
	idx := 0
	add := func(tss ...window.TS) {
		db = append(db, window.VS{Index: idx, StartFrame: idx * 15, EndFrame: idx*15 + 10, TSs: tss})
		idx++
	}
	for i := 0; i < nRel; i++ {
		peak := []float64{0.35 + rng.Float64()*0.1, 2.6 + rng.NormFloat64()*0.5, 1.1 + rng.NormFloat64()*0.2}
		after := []float64{0.3 + rng.Float64()*0.1, 0.5 + rng.NormFloat64()*0.1, 0.25 + rng.NormFloat64()*0.08}
		add(window.TS{TrackID: 100 + i, Vectors: [][]float64{n3(1), peak, after}})
	}
	for i := 0; i < nDis; i++ {
		spike := []float64{0.02 + rng.Float64()*0.02, 2.3 + rng.NormFloat64()*0.5, 0.05 + math.Abs(rng.NormFloat64())*0.04}
		add(window.TS{TrackID: 300 + i, Vectors: [][]float64{n3(1), spike, n3(1)}})
	}
	for i := 0; i < nNorm; i++ {
		add(normalTS(400 + i))
	}
	return db, nRel
}

// TestShardedRecall: on the demo-mix catalog, a 5-round oracle-judged
// feedback session through the sharded engine at C = N/4 must keep
// recall@10 ≥ 0.9 against the exact engine run on the same
// accumulated labels — for both index kinds and S ∈ {2,3,5}. This is
// the gate that holds the per-shard budget heuristic (C/S plus
// slack) to measurement: a budget cut too deep shows up here first.
func TestShardedRecall(t *testing.T) {
	db, nRel := demoMixDB(1, 12, 12, 72)
	n := len(db)
	for _, kind := range index.Kinds() {
		for _, s := range []int{2, 3, 5} {
			probers := buildProbers(t, db, s, kind, index.Options{})
			inner := retrieval.MILEngine{Opt: mil.DefaultOptions()}
			eng := &Engine{Inner: inner, Probers: probers, C: n / 4}
			labels := make(map[int]mil.Label)
			for round := 0; round < 5; round++ {
				got, gotTop, err := retrieval.RankRound(eng, db, labels, 20)
				if err != nil {
					t.Fatalf("%s S=%d round %d: %v", kind, s, round, err)
				}
				want, _, err := retrieval.RankRound(inner, db, labels, 20)
				if err != nil {
					t.Fatal(err)
				}
				set := make(map[int]bool, 10)
				for _, p := range want[:10] {
					set[p] = true
				}
				hit := 0
				for _, p := range got[:10] {
					if set[p] {
						hit++
					}
				}
				if r := float64(hit) / 10; r < 0.9 {
					t.Fatalf("%s S=%d round %d: recall@10 = %.2f at C=N/4, want >= 0.9", kind, s, round, r)
				}
				for _, pos := range gotTop {
					if pos < nRel {
						labels[db[pos].Index] = mil.Positive
					} else {
						labels[db[pos].Index] = mil.Negative
					}
				}
			}
		}
	}
}

// TestShardedBoundCarry pins the scout-and-carry scatter: with local
// probers and S > 1 the carried wave runs bounded (BoundedShardProbes
// advances), the C=N merge stays permutation-identical to the
// unsharded ranking even though the carried shards pruned against the
// scout's radii (completion hits restore whatever pruning skipped),
// and at a quarter budget a full feedback session still holds
// recall@10 >= 0.9 against the exact engine.
func TestShardedBoundCarry(t *testing.T) {
	db, nRel := demoMixDB(23, 10, 10, 92)
	n := len(db)
	inner := retrieval.MILEngine{Opt: mil.DefaultOptions()}
	for _, s := range []int{2, 4} {
		probers := buildProbers(t, db, s, index.KindVPTree, index.Options{})
		st := &Stats{}
		eng := &Engine{Inner: inner, Probers: probers, C: n, Stats: st}
		labels := shardLabels(db, 4, 2)
		got, err := eng.Rank(db, labels)
		if err != nil {
			t.Fatal(err)
		}
		want, err := inner.Rank(db, labels)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("S=%d: C=N ranking diverged under carried bounds", s)
		}
		if carried := st.BoundedShardProbes.Load(); carried != int64(s-1) {
			t.Fatalf("S=%d: %d bounded shard probes, want %d (every non-scout shard)", s, carried, s-1)
		}

		// A feedback session at C=N/4: the carried bounds must not cost
		// recall the budget itself preserves.
		eng = &Engine{Inner: inner, Probers: probers, C: n / 4, Stats: st}
		sess := make(map[int]mil.Label)
		for round := 0; round < 5; round++ {
			got, gotTop, err := retrieval.RankRound(eng, db, sess, 20)
			if err != nil {
				t.Fatalf("S=%d round %d: %v", s, round, err)
			}
			want, _, err := retrieval.RankRound(inner, db, sess, 20)
			if err != nil {
				t.Fatal(err)
			}
			set := make(map[int]bool, 10)
			for _, p := range want[:10] {
				set[p] = true
			}
			hit := 0
			for _, p := range got[:10] {
				if set[p] {
					hit++
				}
			}
			if r := float64(hit) / 10; r < 0.9 {
				t.Fatalf("S=%d round %d: recall@10 = %.2f under carried bounds, want >= 0.9", s, round, r)
			}
			for _, pos := range gotTop {
				if pos < nRel {
					sess[db[pos].Index] = mil.Positive
				} else {
					sess[db[pos].Index] = mil.Negative
				}
			}
		}
	}
}

// TestShardedDeterminism: the merge order must not depend on the
// goroutine schedule — repeated runs return identical rankings.
func TestShardedDeterminism(t *testing.T) {
	db := shardSynthDB(7, 63)
	labels := shardLabels(db, 3, 2)
	probers := buildProbers(t, db, 5, index.KindIVF, index.Options{})
	eng := &Engine{Inner: retrieval.RocchioEngine{}, Probers: probers, C: 16}
	first, err := eng.Rank(db, labels)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		again, err := eng.Rank(db, labels)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d diverged from the first", i)
		}
	}
}

// TestPerShardBudget pins the budget policy: full C when C >= N or
// S == 1 (the exactness path), a reduced C/S-plus-slack budget
// otherwise, never exceeding C.
func TestPerShardBudget(t *testing.T) {
	mk := func(s, c int) *Engine {
		return &Engine{C: c, Probers: make([]Prober, s)}
	}
	if got := mk(4, 100).perShardC(100); got != 100 {
		t.Fatalf("C=N: got %d, want full 100", got)
	}
	if got := mk(1, 50).perShardC(1000); got != 50 {
		t.Fatalf("S=1: got %d, want full 50", got)
	}
	// Small C: the 64 slack floor dominates, capped back at C.
	if got := mk(4, 48).perShardC(1000); got != 48 {
		t.Fatalf("small C: got %d, want 48", got)
	}
	// Large C: C/S + C/16.
	if got := mk(4, 1600).perShardC(48000); got != 1600/4+1600/16 {
		t.Fatalf("large C: got %d, want %d", got, 1600/4+1600/16)
	}
}

// TestProbeLocalCompletion: a budget covering the slice returns
// every bag exactly once, probed hits first with real distances,
// completion hits with +Inf — as database positions, mapped through
// a partition's Pos and the identity for a whole database.
func TestProbeLocalCompletion(t *testing.T) {
	db := shardSynthDB(9, 30)
	probes := PositiveProbes(db, shardLabels(db, 2, 0))
	whole, err := index.Build(db, index.KindVPTree, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, part := range append([]Part{{VSs: db}}, PartitionVS(NewRing(3), "clip", db)...) {
		bi := whole
		if part.Pos != nil {
			if bi, err = index.Build(part.VSs, index.KindVPTree, index.Options{}); err != nil {
				t.Fatal(err)
			}
		}
		hits, _, err := LocalProber{VSs: part.VSs, Pos: part.Pos, Index: bi}.Probe(context.Background(), probes, len(part.VSs))
		if err != nil {
			t.Fatal(err)
		}
		if len(hits) != len(part.VSs) {
			t.Fatalf("full-budget probe returned %d of %d bags", len(hits), len(part.VSs))
		}
		owned := map[int]bool{}
		for _, vs := range part.VSs {
			owned[vs.Index] = true
		}
		seen := map[int]bool{}
		completed := false
		for _, h := range hits {
			if seen[h.Pos] {
				t.Fatalf("position %d returned twice", h.Pos)
			}
			seen[h.Pos] = true
			if !owned[db[h.Pos].Index] {
				t.Fatalf("position %d (VS %d) is not in the probed slice", h.Pos, db[h.Pos].Index)
			}
			if math.IsInf(h.Dist, 1) {
				completed = true
			} else if completed {
				t.Fatal("a probed hit follows a completion hit")
			}
		}
	}
	// Mismatched index is rejected, not silently misaligned.
	if _, _, err := (LocalProber{VSs: db[:10], Index: whole}).Probe(context.Background(), probes, 5); err == nil {
		t.Fatal("stale index accepted")
	}
}

// TestProbeLocalStaleGeneration: an index updated to the next
// generation at steady retention covers as many bags as the superseded
// partition; probing it for that partition fails with index.ErrStale,
// and inside a scatter the failure fails the round with
// retrieval.ErrStaleIndex — at one shard and alongside a healthy one —
// instead of counting as a lost shard and degrading to a full rank or
// a partial merge.
func TestProbeLocalStaleGeneration(t *testing.T) {
	db := shardSynthDB(9, 40)
	old, cur := db[:30], db[10:]
	bi, err := index.Build(old, index.KindVPTree, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bi.Update(cur); err != nil {
		t.Fatal(err)
	}
	labels := shardLabels(old, 3, 1)
	probes := PositiveProbes(old, labels)
	ctx := context.Background()
	if _, _, err := (LocalProber{VSs: old, Index: bi}).Probe(ctx, probes, 5); !errors.Is(err, index.ErrStale) {
		t.Fatalf("superseded partition: err %v, want index.ErrStale", err)
	}
	if _, _, err := (LocalProber{VSs: cur, Index: bi}).Probe(ctx, probes, 5); err != nil {
		t.Fatalf("current partition: %v", err)
	}
	stale := LocalProber{VSs: old, Index: bi}
	for _, probers := range [][]Prober{{stale}, append([]Prober{stale}, buildProbers(t, old, 2, index.KindIVF, index.Options{})[1:]...)} {
		stats := &Stats{}
		eng := &Engine{Inner: retrieval.RocchioEngine{}, Probers: probers, C: 5, Stats: stats}
		if _, err := eng.Rank(old, labels); !errors.Is(err, retrieval.ErrStaleIndex) {
			t.Fatalf("S=%d: stale shard: err %v, want ErrStaleIndex", len(probers), err)
		}
		if stats.ShardErrors.Load() != 0 || stats.AllFailedRounds.Load() != 0 || stats.FullRounds.Load() != 0 ||
			stats.PartialRounds.Load() != 0 || stats.PrunedRounds.Load() != 0 {
			t.Fatalf("S=%d: stale shard counted: errors=%d all_failed=%d full=%d partial=%d pruned=%d", len(probers),
				stats.ShardErrors.Load(), stats.AllFailedRounds.Load(), stats.FullRounds.Load(),
				stats.PartialRounds.Load(), stats.PrunedRounds.Load())
		}
	}
}

// seedingInner wraps an engine with canned round-0 probes, standing
// in for a predicate query.
type seedingInner struct {
	retrieval.Engine
	probes [][]float64
}

func (s seedingInner) SeedProbes([]window.VS) [][]float64 { return s.probes }

// TestShardedSeededIdentity: the sharded C=N identity extends to
// probe-seeded sessions — with zero labels, a seeding engine's
// scatter–gather ranking must equal its unsharded ranking, and it
// must flow through the scatter path (a seeded round, not a full
// delegation): the full budget still reassembles every partition via
// completion hits.
func TestShardedSeededIdentity(t *testing.T) {
	db := shardSynthDB(9, 63)
	probes := [][]float64{db[0].TSs[0].Flat(), db[21].TSs[0].Flat()}
	for _, kind := range index.Kinds() {
		for _, s := range []int{1, 3} {
			probers := buildProbers(t, db, s, kind, index.Options{})
			for _, inner := range shardEngines() {
				seeded := seedingInner{Engine: inner, probes: probes}
				want, err := inner.Rank(db, map[int]mil.Label{})
				if err != nil {
					t.Fatal(err)
				}
				st := &Stats{}
				eng := &Engine{Inner: seeded, Probers: probers, C: len(db), Stats: st}
				got, err := eng.Rank(db, map[int]mil.Label{})
				if err != nil {
					t.Fatalf("kind=%s S=%d %s: %v", kind, s, inner.Name(), err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("kind=%s S=%d %s: seeded sharded C=N ranking diverges\ngot  %v\nwant %v",
						kind, s, inner.Name(), got, want)
				}
				if st.PrunedRounds.Load() != 1 || st.SeededRounds.Load() != 1 || st.FullRounds.Load() != 0 {
					t.Fatalf("kind=%s S=%d %s: stats pruned=%d seeded=%d full=%d, want 1/1/0",
						kind, s, inner.Name(), st.PrunedRounds.Load(), st.SeededRounds.Load(), st.FullRounds.Load())
				}
			}
		}
	}
}

// TestShardedStoredOrder: a scattered round that filters a stored
// heuristic order ranks exactly as one that computes the order, at one
// shard and at three. The order is read when the merged union leaves
// a remainder, never at C = N with every shard answering, and once in
// round 0 without probes, whose MIL fallback copies it: a caller
// writing into that ranking leaves the next round 0 unchanged. An
// order of the wrong length fails pruned rounds and round 0 alike
// with ErrStaleIndex.
func TestShardedStoredOrder(t *testing.T) {
	db := shardSynthDB(2, 90)
	labels := shardLabels(db, 3, 3)
	order := retrieval.HeuristicOrder(db)
	want0 := append([]int(nil), order...)
	inner := retrieval.MILEngine{Opt: mil.DefaultOptions()}
	for _, kind := range index.Kinds() {
		for _, s := range []int{1, 3} {
			probers := buildProbers(t, db, s, kind, index.Options{})
			for _, tc := range []struct {
				labels map[int]mil.Label
				c      int
				reads  int
			}{
				{labels, 10, 1},
				{labels, len(db), 0},
				{map[int]mil.Label{}, 10, 1},
			} {
				reads := 0
				stored := &Engine{Inner: inner, Probers: probers, C: tc.c, Order: func() []int { reads++; return order }}
				got, err := stored.Rank(db, tc.labels)
				if err != nil {
					t.Fatal(err)
				}
				want, err := (&Engine{Inner: inner, Probers: probers, C: tc.c}).Rank(db, tc.labels)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s S=%d C=%d: stored-order ranking diverges from the computed one", kind, s, tc.c)
				}
				if reads != tc.reads {
					t.Fatalf("%s S=%d C=%d labels=%d: stored order read %d times, want %d", kind, s, tc.c, len(tc.labels), reads, tc.reads)
				}
				if len(tc.labels) == 0 {
					for i := range got {
						got[i] = -1
					}
					again, err := stored.Rank(db, tc.labels)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(again, want) || !reflect.DeepEqual(order, want0) {
						t.Fatalf("%s S=%d: writing into a round-0 ranking changed the next round 0", kind, s)
					}
				}
			}
			stale := &Engine{Inner: inner, Probers: probers, C: 10, Order: func() []int { return order[1:] }}
			if _, err := stale.Rank(db, labels); !errors.Is(err, retrieval.ErrStaleIndex) {
				t.Fatalf("%s S=%d: order of %d bags for %d: got %v, want ErrStaleIndex", kind, s, len(order)-1, len(db), err)
			}
			if _, err := stale.Rank(db, map[int]mil.Label{}); !errors.Is(err, retrieval.ErrStaleIndex) {
				t.Fatalf("%s S=%d round 0: order of %d bags for %d: got %v, want ErrStaleIndex", kind, s, len(order)-1, len(db), err)
			}
		}
	}
}

// TestShardedSeededRoundCounting: a seeded round counts as seeded
// only together with its pruned (scattered) round, so seeded rounds
// stay a subset of pruned ones. When every shard is lost the round
// falls back to a full rank and counts as full, not as seeded.
func TestShardedSeededRoundCounting(t *testing.T) {
	db := shardSynthDB(13, 63)
	probers := buildProbers(t, db, 3, index.KindVPTree, index.Options{})
	inner := seedingInner{Engine: retrieval.RocchioEngine{}, probes: [][]float64{db[0].TSs[0].Flat()}}
	st := &Stats{}
	eng := &Engine{
		Inner: inner, Probers: probers, C: 16, Stats: st,
		Fault: func(int, uint64) (time.Duration, error) { return 0, errors.New("total outage") },
	}
	if _, err := eng.Rank(db, map[int]mil.Label{}); err != nil {
		t.Fatal(err)
	}
	if st.SeededRounds.Load() != 0 || st.PrunedRounds.Load() != 0 || st.FullRounds.Load() != 1 {
		t.Fatalf("all shards lost: seeded=%d pruned=%d full=%d, want 0/0/1",
			st.SeededRounds.Load(), st.PrunedRounds.Load(), st.FullRounds.Load())
	}
	eng.Fault = nil
	if _, err := eng.Rank(db, map[int]mil.Label{}); err != nil {
		t.Fatal(err)
	}
	if st.SeededRounds.Load() != 1 || st.PrunedRounds.Load() != 1 || st.FullRounds.Load() != 1 {
		t.Fatalf("healthy seeded round: seeded=%d pruned=%d full=%d, want 1/1/1",
			st.SeededRounds.Load(), st.PrunedRounds.Load(), st.FullRounds.Load())
	}
}

// TestShardedRoundContextEnded: a round whose own context was
// cancelled or expired returns that error instead of falling back to
// a full rank of the database, at one shard and at three, and counts
// no shard as lost: the shards did not fail, the round ended.
func TestShardedRoundContextEnded(t *testing.T) {
	db := shardSynthDB(13, 49)
	labels := shardLabels(db, 2, 2)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for _, s := range []int{1, 3} {
		probers := buildProbers(t, db, s, index.KindVPTree, index.Options{})
		for _, tc := range []struct {
			ctx  context.Context
			want error
		}{
			{cancelled, context.Canceled},
			{expired, context.DeadlineExceeded},
		} {
			st := &Stats{}
			eng := &Engine{Inner: retrieval.MILEngine{Opt: mil.DefaultOptions()}, Probers: probers, C: 16, Stats: st}
			got, err := eng.RankCtx(tc.ctx, db, labels)
			if !errors.Is(err, tc.want) || got != nil {
				t.Fatalf("S=%d: ended round returned %d positions and %v, want %v", s, len(got), err, tc.want)
			}
			if st.FullRounds.Load() != 0 || st.AllFailedRounds.Load() != 0 || st.PrunedRounds.Load() != 0 {
				t.Fatalf("S=%d: ended round counted full=%d all_failed=%d pruned=%d", s,
					st.FullRounds.Load(), st.AllFailedRounds.Load(), st.PrunedRounds.Load())
			}
			if st.ShardErrors.Load() != 0 || st.ShardTimeouts.Load() != 0 {
				t.Fatalf("S=%d: ended round (%v) counted shard_errors=%d shard_timeouts=%d, want 0/0", s,
					tc.want, st.ShardErrors.Load(), st.ShardTimeouts.Load())
			}
		}
	}
}
