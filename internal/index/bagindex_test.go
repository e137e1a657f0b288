package index

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"milvideo/internal/kernel"
	"milvideo/internal/window"
)

// synthVSs builds n bags of 1–3 TSs with 3-point, 3-dim vectors
// (flattened instance dim 9), mirroring the retrieval fixtures.
func synthVSs(seed int64, n int) []window.VS {
	rng := rand.New(rand.NewSource(seed))
	db := make([]window.VS, n)
	for i := range db {
		vs := window.VS{Index: i, StartFrame: i * 15, EndFrame: i*15 + 10}
		for k := 0; k < 1+rng.Intn(3); k++ {
			ts := window.TS{TrackID: i*10 + k}
			for p := 0; p < 3; p++ {
				ts.Vectors = append(ts.Vectors, []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()})
			}
			vs.TSs = append(vs.TSs, ts)
		}
		db[i] = vs
	}
	return db
}

// TestBagIndexCandidates: probing with a bag's own instance puts that
// bag first; results stay within bounds and are deterministic.
func TestBagIndexCandidates(t *testing.T) {
	db := synthVSs(5, 60)
	bi, err := Build(db, KindVPTree, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if bi.Bags() != 60 {
		t.Fatalf("bags %d, want 60", bi.Bags())
	}
	if bi.Instances() == 0 {
		t.Fatal("no instances indexed")
	}
	probe := db[17].TSs[0].Flat()
	cands, stats := bi.Candidates([][]float64{probe}, 8)
	if len(cands) == 0 || len(cands) > 8 {
		t.Fatalf("%d candidates for c=8", len(cands))
	}
	if cands[0] != 17 {
		t.Fatalf("self-probe ranked bag %d first, want 17", cands[0])
	}
	if stats.Probes != 1 || stats.DistEvals == 0 {
		t.Fatalf("odd stats %+v", stats)
	}
	again, _ := bi.Candidates([][]float64{probe}, 8)
	for i := range cands {
		if cands[i] != again[i] {
			t.Fatalf("candidates nondeterministic at %d", i)
		}
	}
}

// TestCandidatesDist: the distance-carrying probe (CandidatesOver)
// agrees with Candidates on membership and order, distances are
// non-negative and non-decreasing, and the empty cases return nil
// exactly like the position-only form.
func TestCandidatesDist(t *testing.T) {
	db := synthVSs(8, 50)
	bi, err := Build(db, KindVPTree, Options{})
	if err != nil {
		t.Fatal(err)
	}
	probes := [][]float64{db[3].TSs[0].Flat(), db[21].TSs[0].Flat()}
	hits, _, hstats, err := bi.CandidatesOver(db, probes, 12, nil)
	if err != nil {
		t.Fatal(err)
	}
	cands, cstats := bi.Candidates(probes, 12)
	if len(hits) != len(cands) {
		t.Fatalf("%d hits vs %d candidates", len(hits), len(cands))
	}
	for i, h := range hits {
		if h.Pos != cands[i] {
			t.Fatalf("hit %d is bag %d, Candidates has %d", i, h.Pos, cands[i])
		}
		if h.Dist < 0 {
			t.Fatalf("negative distance %v", h.Dist)
		}
		if i > 0 && h.Dist < hits[i-1].Dist {
			t.Fatalf("distances not sorted at %d: %v < %v", i, h.Dist, hits[i-1].Dist)
		}
	}
	if hstats.Probes != cstats.Probes {
		t.Fatalf("probe stats diverge: %+v vs %+v", hstats, cstats)
	}
	empty := []window.VS{{Index: 0}}
	bi, err = Build(empty, KindVPTree, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if hits, _, _, err := bi.CandidatesOver(empty, [][]float64{{1, 2, 3}}, 4, nil); err != nil || hits != nil {
		t.Fatalf("instanceless index returned hits %v (err %v)", hits, err)
	}
	if cands, _ := bi.Candidates([][]float64{{1, 2, 3}}, 4); cands != nil {
		t.Fatalf("instanceless index returned candidates %v", cands)
	}
}

// TestCandidatesDistBounded: the scout/carry probe surface of
// CandidatesOver. Nil bounds and all-infinite bounds are the same
// unbounded probe, hit for hit and evaluation for evaluation, and
// export each probe's achieved k-th instance distance; carrying those
// very distances back as bounds changes no answer (a probe's own k-th
// distance upper-bounds itself) and costs no extra evals, and the
// instanceless index stays nil.
func TestCandidatesDistBounded(t *testing.T) {
	db := synthVSs(9, 60)
	bi, err := Build(db, KindVPTree, Options{})
	if err != nil {
		t.Fatal(err)
	}
	probes := [][]float64{db[5].TSs[0].Flat(), db[40].TSs[0].Flat()}
	inf := []float64{math.Inf(1), math.Inf(1)}
	want, _, wstats, err := bi.CandidatesOver(db, probes, 10, inf)
	if err != nil {
		t.Fatal(err)
	}
	hits, kth, stats, err := bi.CandidatesOver(db, probes, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != len(want) {
		t.Fatalf("%d hits with nil bounds, %d with infinite ones", len(hits), len(want))
	}
	for i := range want {
		if hits[i] != want[i] {
			t.Fatalf("hit %d = %+v with nil bounds, %+v with infinite ones", i, hits[i], want[i])
		}
	}
	if stats.DistEvals != wstats.DistEvals {
		t.Fatalf("nil-bound evals %d, infinite-bound evals %d", stats.DistEvals, wstats.DistEvals)
	}
	if len(kth) != len(probes) {
		t.Fatalf("%d exported bounds for %d probes", len(kth), len(probes))
	}
	for qi, d := range kth {
		// A probe over 60 bags at k = 26 finds k neighbors, so its
		// bound is a finite distance.
		if d < 0 || math.IsNaN(d) || math.IsInf(d, 1) {
			t.Fatalf("probe %d exported bound %v over %d live instances", qi, d, bi.Instances())
		}
	}
	carried, _, cstats, err := bi.CandidatesOver(db, probes, 10, kth)
	if err != nil {
		t.Fatal(err)
	}
	if len(carried) != len(hits) {
		t.Fatalf("carrying own bounds changed the hit count: %d vs %d", len(carried), len(hits))
	}
	for i := range hits {
		if carried[i] != hits[i] {
			t.Fatalf("carried hit %d = %+v, want %+v", i, carried[i], hits[i])
		}
	}
	if cstats.DistEvals > stats.DistEvals {
		t.Fatalf("carried bounds cost more evals: %d vs %d", cstats.DistEvals, stats.DistEvals)
	}
	empty := []window.VS{{Index: 0}}
	bi, err = Build(empty, KindVPTree, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if hits, kth, _, err := bi.CandidatesOver(empty, [][]float64{{1, 2, 3}}, 4, nil); err != nil || hits != nil || len(kth) != 1 || !math.IsInf(kth[0], 1) {
		t.Fatalf("instanceless index returned hits %v bounds %v (err %v)", hits, kth, err)
	}
}

// TestCandidatesOverGeneration: CandidatesOver answers only for the
// database the index covers. After an Update from VS 0–99 to VS 20–119
// both databases hold 100 bags; probing with VS 50's own instance names
// position 30 first, which is VS 50 in the current database but VS 30
// in the superseded one, so the superseded one must get ErrStale.
func TestCandidatesOverGeneration(t *testing.T) {
	db := synthVSs(12, 120)
	old, cur := db[:100], db[20:]
	probes := [][]float64{db[50].TSs[0].Flat()}
	bi, err := Build(old, KindVPTree, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bi.Update(cur); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := bi.CandidatesOver(old, probes, 5, nil); !errors.Is(err, ErrStale) {
		t.Fatalf("superseded database: err %v, want ErrStale", err)
	}
	hits, kth, _, err := bi.CandidatesOver(cur, probes, 5, nil)
	if err != nil {
		t.Fatalf("current database: %v", err)
	}
	if len(hits) == 0 || hits[0].Pos != 30 || hits[0].Dist != 0 || len(kth) != 1 {
		t.Fatalf("self-probe hits %v (kth %v), want position 30 first at distance 0", hits, kth)
	}
}

// TestBagIndexEmptyAndMismatch: empty databases and empty VSs are
// tolerated; dim-mismatched probes are skipped; ragged instance dims
// fail the build.
func TestBagIndexEmptyAndMismatch(t *testing.T) {
	empty := []window.VS{{Index: 0}, {Index: 1}}
	bi, err := Build(empty, KindVPTree, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cands, _ := bi.Candidates([][]float64{{1, 2, 3}}, 4); cands != nil {
		t.Fatalf("instanceless index returned candidates %v", cands)
	}

	db := synthVSs(6, 10)
	bi, err = Build(db, KindVPTree, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cands, stats := bi.Candidates([][]float64{{1, 2}}, 4); len(cands) != 0 || stats.Probes != 0 {
		t.Fatalf("mismatched probe returned candidates %v (stats %+v)", cands, stats)
	}

	bad := synthVSs(7, 4)
	bad[2].TSs[0].Vectors = bad[2].TSs[0].Vectors[:2] // shorter flat vector
	if _, err := Build(bad, KindVPTree, Options{}); err == nil {
		t.Fatal("ragged instance dims built successfully")
	}

	if _, err := Build(db, Kind("lsh"), Options{}); err == nil {
		t.Fatal("unknown kind built successfully")
	}
}

// TestDeletedNamesRejected: the index kind and the quantizer that were
// deleted fail to parse and to build, with an error that names what
// remains, instead of mapping silently onto it.
func TestDeletedNamesRejected(t *testing.T) {
	if _, err := ParseKind("ivf"); err == nil || !strings.Contains(err.Error(), string(KindVPTree)) {
		t.Fatalf(`ParseKind("ivf"): err %v, want one naming %q`, err, KindVPTree)
	}
	if _, err := ParseQuantKind("scalar"); err == nil || !strings.Contains(err.Error(), string(QuantPQ)) {
		t.Fatalf(`ParseQuantKind("scalar"): err %v, want one naming %q`, err, QuantPQ)
	}
	db := synthVSs(6, 10)
	if _, err := Build(db, Kind("ivf"), Options{}); err == nil {
		t.Fatal("ivf index built successfully")
	}
	if _, err := Build(db, KindVPTree, Options{Quant: QuantKind("scalar")}); err == nil {
		t.Fatal("scalar-quantized index built successfully")
	}
}

// candidatesOracle is the multi-probe pass without a shared threshold:
// each probe's sorted KNN at k = c + 16 clamped to the live instances,
// min-aggregated per bag, ordered by (distance, position) and cut to
// c. It also returns the per-probe distance evaluations summed.
func candidatesOracle(bi *BagIndex, probes [][]float64, c int) ([]BagHit, int) {
	k := min(c+16, bi.Instances())
	if c <= 0 || k == 0 {
		return nil, 0
	}
	best := map[int]float64{}
	evals := 0
	for _, q := range probes {
		nbs, e := bi.vp.KNN(q, k)
		evals += e
		for _, nb := range nbs {
			pos := bi.owner[nb.Idx]
			if d, ok := best[pos]; !ok || nb.Dist < d {
				best[pos] = nb.Dist
			}
		}
	}
	out := make([]BagHit, 0, len(best))
	for pos, d := range best {
		out = append(out, BagHit{Pos: pos, Dist: d})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Dist != out[b].Dist {
			return out[a].Dist < out[b].Dist
		}
		return out[a].Pos < out[b].Pos
	})
	return out[:min(c, len(out))], evals
}

// fuzzQuantizer is one PQ trained on a fixed synthVSs draw; the fuzz
// adopts it instead of training per input.
var fuzzQuantizer = sync.OnceValues(func() (*ProductQuantizer, error) {
	pts, _, _, _, err := flatten(synthVSs(1, 400), -1)
	if err != nil {
		return nil, err
	}
	blk, err := kernel.FeatureBlockFromRows(pts)
	if err != nil {
		return nil, err
	}
	return TrainProductQuantizer(blk, PQOptions{Seed: 1})
})

// FuzzCandidatesExact: the shared-threshold multi-probe pass returns
// exactly candidatesOracle's candidates, distances included, through
// CandidatesOver with nil bounds, and their positions through
// Candidates. It covers float rows and PQ codes, general-position and
// lattice (rounded, tie-heavy) instances, tombstones left by a delta
// Update, a dimension-mismatched and a duplicate probe, and c from 1
// to past the bag count. A VP-tree over 500 or more bags probed 10 or
// more times at c <= bags/8 must spend strictly fewer evaluations than
// the per-probe searches. The seed corpus doubles as the table test.
func FuzzCandidatesExact(f *testing.F) {
	// seed, bags-8, probes-1, c step, deletion phase, pq, lattice
	//
	// Seeds are named by position (seed#N), so the corpus keeps its 20
	// slots: each shape runs under two RNG bases, the two leading
	// shapes on float rows once and on PQ codes twice.
	for _, base := range []int64{10, 0} {
		for i, pq := range []bool{false, true, true} {
			f.Add(base+int64(1+i), uint16(592), uint8(11), uint8(6), uint8(0), pq, false)
			f.Add(base+int64(4+i), uint16(40), uint8(5), uint8(0), uint8(3), pq, true)
		}
		f.Add(base+7, uint16(120), uint8(15), uint8(200), uint8(5), false, false)
		f.Add(base+8, uint16(0), uint8(2), uint8(255), uint8(0), true, true)
		f.Add(base+9, uint16(300), uint8(12), uint8(3), uint8(9), true, true)
	}
	// Lattice ties at the threshold: dropping hits at exactly tau, or
	// the bags tied with the c-th at a re-selection, changes these.
	f.Add(int64(58), uint16(29), uint8(5), uint8(47), uint8(1), false, true)
	f.Add(int64(-58), uint16(40), uint8(5), uint8(91), uint8(102), false, true)
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint16, pRaw, cRaw, delRaw uint8, pq, lattice bool) {
		opt := Options{}
		if pq {
			qz, err := fuzzQuantizer()
			if err != nil {
				t.Fatal(err)
			}
			opt.Quantizer = qz
		}
		n := 8 + int(nRaw)%600
		db := synthVSs(seed, n+3)
		if lattice {
			for _, vs := range db {
				for _, ts := range vs.TSs {
					for _, v := range ts.Vectors {
						for j := range v {
							v[j] = math.Round(v[j])
						}
					}
				}
			}
		}
		bi, err := Build(db[:n], KindVPTree, opt)
		if err != nil {
			t.Fatal(err)
		}
		if delRaw > 0 {
			// Drop about a tenth of the bags and append three: unless the
			// index is tiny the churn stays under the rebuild threshold,
			// so the departed bags' instances stay resident as
			// tombstones.
			var next []window.VS
			for i, vs := range db[:n] {
				if i%11 != int(delRaw)%11 {
					next = append(next, vs)
				}
			}
			db = append(next, db[n:]...)
			if _, err := bi.Update(db); err != nil {
				t.Fatal(err)
			}
		} else {
			db = db[:n]
		}
		rng := rand.New(rand.NewSource(seed))
		probes := [][]float64{{1, 2}} // dimension mismatch: skipped
		for len(probes) < 2+int(pRaw)%16 {
			vs := db[rng.Intn(len(db))]
			probes = append(probes, vs.TSs[rng.Intn(len(vs.TSs))].Flat())
		}
		probes = append(probes, probes[1])
		c := 1 + int(cRaw)*len(db)/128

		want, sumEvals := candidatesOracle(bi, probes, c)
		hits, _, stats, err := bi.CandidatesOver(db, probes, c, nil)
		if err != nil {
			t.Fatal(err)
		}
		pos, pstats := bi.Candidates(probes, c)
		if len(hits) != len(want) || len(pos) != len(want) {
			t.Fatalf("c=%d: %d hits and %d candidates, oracle %d", c, len(hits), len(pos), len(want))
		}
		for i := range want {
			if hits[i] != want[i] || pos[i] != want[i].Pos {
				t.Fatalf("c=%d: hit %d = %+v, candidate %d, oracle %+v", c, i, hits[i], pos[i], want[i])
			}
		}
		if stats != pstats || stats.Probes != len(probes)-1 {
			t.Fatalf("stats %+v and %+v for %d answerable probes", stats, pstats, len(probes)-1)
		}
		if len(db) >= 500 && stats.Probes >= 10 && c <= len(db)/8 && stats.DistEvals >= sumEvals {
			t.Fatalf("%d evals, per-probe searches %d: the shared threshold pruned nothing", stats.DistEvals, sumEvals)
		}
	})
}
