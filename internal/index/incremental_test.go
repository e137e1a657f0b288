package index

import (
	"math/rand"
	"testing"

	"milvideo/internal/kernel"
	"milvideo/internal/window"
)

// The incremental-maintenance property: any interleaving of inserts
// and deletes, followed by a query, returns exactly what a fresh
// build over the surviving points returns. Searches are exact over
// the indexed point set and tie-stable, so the property is checked by
// identity — mapping both sides' point ids back to a shared stable
// key — not by tolerance.

// ptUniverse is a pool of stable keyed points driving the scripts.
type ptUniverse struct {
	vecs  [][]float64
	alive []bool
	// key maps an index id (per structure instance) to a universe key.
}

func newUniverse(seed int64, n, dim int) *ptUniverse {
	rng := rand.New(rand.NewSource(seed))
	u := &ptUniverse{vecs: make([][]float64, n), alive: make([]bool, n)}
	for i := range u.vecs {
		v := make([]float64, dim)
		for d := range v {
			v[d] = rng.NormFloat64()
		}
		u.vecs[i] = v
	}
	return u
}

func (u *ptUniverse) survivors() [][]float64 {
	var out [][]float64
	for i, v := range u.vecs {
		if u.alive[i] {
			out = append(out, v)
		}
	}
	return out
}

// keysOf maps neighbor ids back to universe keys through id2key.
func keysOf(nbs []Neighbor, id2key []int) []int {
	out := make([]int, len(nbs))
	for i, nb := range nbs {
		out[i] = id2key[nb.Idx]
	}
	return out
}

// TestVPTreeIncrementalMatchesFresh: interleavings of Insert/Delete
// on a VP-tree answer k-NN queries identically (same points, same
// distances) to a fresh build over the survivors.
func TestVPTreeIncrementalMatchesFresh(t *testing.T) {
	const dim, initial, ops = 9, 60, 90
	u := newUniverse(101, initial+ops, dim)
	rng := rand.New(rand.NewSource(102))

	init := u.vecs[:initial]
	tr, err := BuildVPTree(init, VPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	id2key := make([]int, initial) // incremental tree id -> universe key
	key2id := make(map[int]int, initial)
	for i := 0; i < initial; i++ {
		id2key[i] = i
		key2id[i] = i
		u.alive[i] = true
	}
	next := initial

	check := func(step int) {
		fresh, err := BuildVPTree(u.survivors(), VPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		fresh2key := make([]int, 0, len(u.vecs))
		for key, alive := range u.alive {
			if alive {
				fresh2key = append(fresh2key, key)
			}
		}
		for trial := 0; trial < 4; trial++ {
			q := make([]float64, dim)
			for d := range q {
				q[d] = rng.NormFloat64()
			}
			k := 1 + rng.Intn(12)
			got, _ := tr.KNN(q, k)
			want, _ := fresh.KNN(q, k)
			gk, wk := keysOf(got, id2key), keysOf(want, fresh2key)
			if len(gk) != len(wk) {
				t.Fatalf("step %d: incremental returned %d, fresh %d", step, len(gk), len(wk))
			}
			for i := range gk {
				if gk[i] != wk[i] || got[i].Dist != want[i].Dist {
					t.Fatalf("step %d trial %d pos %d: incremental (key %d, d=%v) vs fresh (key %d, d=%v)",
						step, trial, i, gk[i], got[i].Dist, wk[i], want[i].Dist)
				}
			}
		}
	}

	for op := 0; op < ops; op++ {
		if tr.Live() > 5 && rng.Intn(3) == 0 {
			// Delete a random live key.
			var liveKeys []int
			for key, alive := range u.alive {
				if alive {
					liveKeys = append(liveKeys, key)
				}
			}
			key := liveKeys[rng.Intn(len(liveKeys))]
			if !tr.Delete(key2id[key]) {
				t.Fatalf("op %d: delete of live key %d refused", op, key)
			}
			u.alive[key] = false
		} else {
			key := next
			next++
			id := tr.Insert(u.vecs[key])
			if id < 0 {
				t.Fatalf("op %d: insert refused", op)
			}
			for id >= len(id2key) {
				id2key = append(id2key, -1)
			}
			id2key[id] = key
			key2id[key] = id
			u.alive[key] = true
		}
		if op%9 == 0 {
			check(op)
		}
	}
	check(ops)
	if tr.Tombstones() == 0 {
		t.Fatal("script never tombstoned a point")
	}
	if tr.Insert(make([]float64, dim+1)) != -1 {
		t.Fatal("dim-mismatched insert accepted")
	}
	if tr.Delete(-1) || tr.Delete(1<<20) {
		t.Fatal("out-of-range delete accepted")
	}
}

// trainUniverseQuantizer trains one PQ over the whole key pool so
// incremental and fresh builds share a reconstruction lattice.
func trainUniverseQuantizer(t *testing.T, u *ptUniverse) *ProductQuantizer {
	t.Helper()
	blk, err := kernel.FeatureBlockFromRows(u.vecs)
	if err != nil {
		t.Fatal(err)
	}
	qz, err := TrainProductQuantizer(blk, PQOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return qz
}

// TestQuantizedIncrementalMatchesFresh: the equivalence property
// holds over PQ codes too. Quantization collapses points onto a
// shared lattice, so exact distance ties are common; queries use
// exhaustive depth (k = live count), where set identity is
// independent of tie order between the two id spaces.
func TestQuantizedIncrementalMatchesFresh(t *testing.T) {
	const dim, initial, ops = 9, 50, 40
	u := newUniverse(301, initial+ops, dim)
	rng := rand.New(rand.NewSource(302))
	qz := trainUniverseQuantizer(t, u)

	tr, err := BuildVPTree(u.vecs[:initial], VPOptions{Quantizer: qz})
	if err != nil {
		t.Fatal(err)
	}
	id2key := make([]int, initial)
	key2id := make(map[int]int, initial)
	for i := 0; i < initial; i++ {
		id2key[i] = i
		key2id[i] = i
		u.alive[i] = true
	}
	next := initial
	for op := 0; op < ops; op++ {
		if tr.Live() > 5 && rng.Intn(3) == 0 {
			var liveKeys []int
			for key, alive := range u.alive {
				if alive {
					liveKeys = append(liveKeys, key)
				}
			}
			key := liveKeys[rng.Intn(len(liveKeys))]
			tr.Delete(key2id[key])
			u.alive[key] = false
		} else {
			key := next
			next++
			id := tr.Insert(u.vecs[key])
			if id != len(id2key) {
				t.Fatalf("insert id %d, want %d (ids are append-order)", id, len(id2key))
			}
			id2key = append(id2key, key)
			key2id[key] = id
			u.alive[key] = true
		}
	}
	fresh, err := BuildVPTree(u.survivors(), VPOptions{Quantizer: qz})
	if err != nil {
		t.Fatal(err)
	}
	fresh2key := make([]int, 0, len(u.vecs))
	for key, alive := range u.alive {
		if alive {
			fresh2key = append(fresh2key, key)
		}
	}
	for trial := 0; trial < 5; trial++ {
		q := make([]float64, dim)
		for d := range q {
			q[d] = rng.NormFloat64()
		}
		got, _ := tr.KNN(q, tr.Live())
		want, _ := fresh.KNN(q, fresh.Live())
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d live vs %d", trial, len(got), len(want))
		}
		gotKeys := make(map[int]float64, len(got))
		for _, nb := range got {
			gotKeys[id2key[nb.Idx]] = nb.Dist
		}
		for i, nb := range want {
			key := fresh2key[nb.Idx]
			d, ok := gotKeys[key]
			if !ok || d != nb.Dist {
				t.Fatalf("trial %d pos %d: fresh key %d (d=%v) missing or mismatched (d=%v)",
					trial, i, key, nb.Dist, d)
			}
		}
	}
}

// synthVSsAt builds bags like synthVSs with VS indices starting at
// base (so scripts can add fresh bags with unseen indices).
func synthVSsAt(seed int64, base, n int) []window.VS {
	db := synthVSs(seed, n)
	for i := range db {
		db[i].Index = base + i
	}
	return db
}

// TestBagIndexUpdateMatchesFresh: the full-stack property — a
// BagIndex driven through interleaved Update deltas (VS insertions
// and removals) returns the same candidate sets as a fresh Build over
// the surviving database, over float rows and over PQ codes (sharing
// the pre-trained quantizer).
func TestBagIndexUpdateMatchesFresh(t *testing.T) {
	pool := synthVSsAt(40, 0, 120)
	poolBlk := func() *kernel.FeatureBlock {
		var rows [][]float64
		for _, vs := range pool {
			for _, ts := range vs.TSs {
				rows = append(rows, ts.Flat())
			}
		}
		blk, err := kernel.FeatureBlockFromRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		return blk
	}()

	type variant struct {
		name string
		opt  Options
		// exhaustive: probe with full depth and candidate budget.
		// Quantized variants need it — the lattice makes exact
		// distance ties common, and truncated k-NN picks tied points
		// by id, which differs between the two id spaces. At full
		// depth every live point contributes, so bag scores and the
		// (score, position) order are identical.
		exhaustive bool
	}
	qz, err := TrainProductQuantizer(poolBlk, PQOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	variants := []variant{
		{name: "vptree", opt: Options{RebuildFraction: 10}},
		{name: "vptree+pq", opt: Options{RebuildFraction: 10, Quantizer: qz, PerProbeK: 1 << 20}, exhaustive: true},
	}

	for _, v := range variants {
		rng := rand.New(rand.NewSource(77))
		db := append([]window.VS(nil), pool[:60]...)
		bi, err := Build(db, KindVPTree, v.opt)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		nextPool := 60
		for step := 0; step < 12; step++ {
			// Mutate: remove up to 2 random bags, add up to 2 unseen.
			for r := 0; r < rng.Intn(3) && len(db) > 10; r++ {
				victim := rng.Intn(len(db))
				db = append(db[:victim], db[victim+1:]...)
			}
			for a := 0; a < 1+rng.Intn(2) && nextPool < len(pool); a++ {
				db = append(db, pool[nextPool])
				nextPool++
			}
			res, err := bi.Update(db)
			if err != nil {
				t.Fatalf("%s step %d: %v", v.name, step, err)
			}
			if res.Rebuilt {
				t.Fatalf("%s step %d: rebuilt despite high threshold", v.name, step)
			}
			fresh, err := Build(db, KindVPTree, v.opt)
			if err != nil {
				t.Fatalf("%s step %d: fresh build: %v", v.name, step, err)
			}
			if bi.Bags() != fresh.Bags() || bi.Instances() != fresh.Instances() {
				t.Fatalf("%s step %d: bags/instances %d/%d vs fresh %d/%d", v.name, step,
					bi.Bags(), bi.Instances(), fresh.Bags(), fresh.Instances())
			}
			// Probe with a surviving bag's instance and a random query.
			probes := [][]float64{db[rng.Intn(len(db))].TSs[0].Flat()}
			q := make([]float64, 9)
			for d := range q {
				q[d] = rng.NormFloat64()
			}
			probes = append(probes, q)
			c := 8
			if v.exhaustive {
				c = len(db)
			}
			got, _ := bi.Candidates(probes, c)
			want, _ := fresh.Candidates(probes, c)
			if len(got) != len(want) {
				t.Fatalf("%s step %d: %d candidates vs fresh %d", v.name, step, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s step %d pos %d: candidate %d vs fresh %d\n got=%v\nwant=%v",
						v.name, step, i, got[i], want[i], got, want)
				}
			}
		}
		m := bi.Maintenance()
		if m.Applies == 0 || m.Inserted == 0 || m.Deleted == 0 {
			t.Fatalf("%s: maintenance counters %+v never moved", v.name, m)
		}
		if m.Rebuilds != 0 {
			t.Fatalf("%s: unexpected rebuilds %d", v.name, m.Rebuilds)
		}
	}
}

// TestWholeBagDeltasApplyIncrementally is the incremental-maintenance
// gate: at default Options, a built index over a 480-bag catalog
// absorbs 20 deltas that each remove the oldest bag and add an unseen
// one, and every delta must take the incremental path — 20 applies,
// no rebuild.
func TestWholeBagDeltasApplyIncrementally(t *testing.T) {
	const bags, deltas = 480, 20
	catalog := synthVSsAt(90, 0, bags)
	fresh := synthVSsAt(91, 1_000_000, deltas)
	bi, err := Build(catalog, KindVPTree, Options{})
	if err != nil {
		t.Fatal(err)
	}
	db := append([]window.VS(nil), catalog...)
	for op, vs := range fresh {
		db = append(db[1:], vs)
		res, err := bi.Update(db)
		if err != nil {
			t.Fatalf("delta %d: %v", op, err)
		}
		if res.Rebuilt || res.Inserted == 0 || res.Deleted == 0 {
			t.Fatalf("delta %d: not applied as a delta: %+v", op, res)
		}
	}
	if m := bi.Maintenance(); m.Applies != deltas || m.Rebuilds != 0 {
		t.Fatalf("applies %d, rebuilds %d; want %d, 0", m.Applies, m.Rebuilds, deltas)
	}
}

// TestBagIndexUpdateRebuildThreshold: churn past RebuildFraction
// triggers a compacting rebuild; the rebuilt index keeps answering
// like a fresh one and the tombstones are gone.
func TestBagIndexUpdateRebuildThreshold(t *testing.T) {
	pool := synthVSsAt(50, 0, 80)
	db := append([]window.VS(nil), pool[:40]...)
	bi, err := Build(db, KindVPTree, Options{RebuildFraction: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	// Churn well past 10% of the built instance count.
	db = append(db[:10], pool[40:70]...)
	res, err := bi.Update(db)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rebuilt {
		t.Fatalf("heavy churn did not rebuild: %+v", res)
	}
	m := bi.Maintenance()
	if m.Rebuilds != 1 {
		t.Fatalf("rebuilds %d, want 1", m.Rebuilds)
	}
	if m.Tombstones != 0 {
		t.Fatalf("rebuild left %d tombstones", m.Tombstones)
	}
	fresh, err := Build(db, KindVPTree, Options{})
	if err != nil {
		t.Fatal(err)
	}
	probes := [][]float64{db[3].TSs[0].Flat()}
	got, _ := bi.Candidates(probes, 8)
	want, _ := fresh.Candidates(probes, 8)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pos %d: %d vs %d", i, got[i], want[i])
		}
	}

	// A verified-unchanged database applies as a no-op delta.
	applies := bi.Maintenance().Applies
	res, err = bi.Update(db)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rebuilt || res.Inserted != 0 || res.Deleted != 0 {
		t.Fatalf("no-op update did work: %+v", res)
	}
	if got := bi.Maintenance().Applies; got != applies+1 {
		t.Fatalf("applies %d, want %d", got, applies+1)
	}
}

// TestBagIndexQuantizedBuild: Build trains the PQ, reports its name,
// training time and a compressed memory footprint.
func TestBagIndexQuantizedBuild(t *testing.T) {
	db := synthVSs(60, 80)
	bi, err := Build(db, KindVPTree, Options{Quant: QuantPQ})
	if err != nil {
		t.Fatal(err)
	}
	if bi.QuantName() == "" {
		t.Fatal("no quantizer name")
	}
	if bi.TrainTime() <= 0 {
		t.Fatal("no training time")
	}
	m := bi.Memory()
	if m.PointBytes <= 0 || m.FloatBytes <= 0 {
		t.Fatalf("empty memory stats %+v", m)
	}
	if m.PointBytes*4 > m.FloatBytes {
		t.Fatalf("point bytes %d not ≤ 1/4 of float %d", m.PointBytes, m.FloatBytes)
	}
	// Quantized probing still finds the self-probed bag first.
	probe := db[11].TSs[0].Flat()
	cands, _ := bi.Candidates([][]float64{probe}, 8)
	if len(cands) == 0 || cands[0] != 11 {
		t.Fatalf("self-probe candidates %v", cands)
	}
	if _, err := Build(db, KindVPTree, Options{Quant: QuantKind("bad")}); err == nil {
		t.Fatal("unknown quant kind built successfully")
	}
}
