package ingestd

import (
	"fmt"
	"math/rand"
	"testing"

	"milvideo/internal/index"
	"milvideo/internal/videodb"
)

// TestFeedApplyEquivalence is the daemon-apply-path property test:
// for ANY interleaving of live segment appends and retention
// evictions, the incrementally maintained index (the exact VS
// databases the daemon feeds to BagIndex.Update) answers identically
// to an index built fresh over the surviving clips. Exercised in a
// delta-only regime (high rebuild threshold) and a compaction-heavy
// regime (low threshold, rebuilds must fire).
func TestFeedApplyEquivalence(t *testing.T) {
	type variant struct {
		name         string
		opt          index.Options
		wantRebuilds bool
	}
	variants := []variant{
		{name: "vptree/delta", opt: index.Options{RebuildFraction: 100}},
		{name: "vptree/compacting", opt: index.Options{RebuildFraction: 0.05}, wantRebuilds: true},
	}

	for _, v := range variants {
		for _, seed := range []int64{11, 29, 53} {
			rng := rand.New(rand.NewSource(seed))
			f := newFeedState("live")
			recs := map[string]*videodb.ClipRecord{}
			lookup := lookupMap(recs)
			var bi *index.BagIndex
			nextSeq := uint64(0)

			for step := 0; step < 30; step++ {
				// Random interleaving: mostly appends, evictions
				// whenever more than one segment survives (the daemon
				// never evicts its newest segment either).
				if len(f.segs) > 1 && rng.Float64() < 0.4 {
					sm, _ := f.evictOldest()
					delete(recs, sm.Name)
				} else {
					name := fmt.Sprintf("live-seg-%06d", nextSeq)
					rec := synthSeg(rng, name, 1+rng.Intn(4), 6)
					recs[name] = rec
					f.append(name, nextSeq, rec.Frames, len(rec.VSs))
					nextSeq++
				}

				vss, err := f.buildVSs(lookup)
				if err != nil {
					t.Fatalf("%s seed %d step %d: %v", v.name, seed, step, err)
				}
				if bi == nil {
					bi, err = index.Build(vss, index.KindVPTree, v.opt)
					if err != nil {
						t.Fatalf("%s seed %d: initial build: %v", v.name, seed, err)
					}
					continue
				}
				if _, err := bi.Update(vss); err != nil {
					t.Fatalf("%s seed %d step %d: update: %v", v.name, seed, step, err)
				}
				fresh, err := index.Build(vss, index.KindVPTree, v.opt)
				if err != nil {
					t.Fatalf("%s seed %d step %d: fresh build: %v", v.name, seed, step, err)
				}
				if bi.Bags() != fresh.Bags() || bi.Instances() != fresh.Instances() {
					t.Fatalf("%s seed %d step %d: bags/instances %d/%d vs fresh %d/%d",
						v.name, seed, step, bi.Bags(), bi.Instances(), fresh.Bags(), fresh.Instances())
				}
				if bi.Bags() != len(vss) {
					t.Fatalf("%s seed %d step %d: %d bags for %d live VSs",
						v.name, seed, step, bi.Bags(), len(vss))
				}

				// Probe with one live instance and one random query.
				var probes [][]float64
				for _, vs := range vss {
					if len(vs.TSs) > 0 {
						probes = append(probes, vs.TSs[0].Flat())
						break
					}
				}
				q := make([]float64, 6)
				for d := range q {
					q[d] = rng.NormFloat64()
				}
				probes = append(probes, q)
				c := len(vss)
				got, _ := bi.Candidates(probes, c)
				want, _ := fresh.Candidates(probes, c)
				if len(got) != len(want) {
					t.Fatalf("%s seed %d step %d: %d candidates vs fresh %d\n got=%v\nwant=%v",
						v.name, seed, step, len(got), len(want), got, want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s seed %d step %d pos %d: candidate %d vs fresh %d\n got=%v\nwant=%v",
							v.name, seed, step, i, got[i], want[i], got, want)
					}
				}
			}

			m := bi.Maintenance()
			if v.wantRebuilds && m.Rebuilds == 0 {
				t.Fatalf("%s seed %d: low threshold never compacted (%+v)", v.name, seed, m)
			}
			if !v.wantRebuilds {
				if m.Rebuilds != 0 {
					t.Fatalf("%s seed %d: high threshold rebuilt %d times", v.name, seed, m.Rebuilds)
				}
				if m.Applies == 0 {
					t.Fatalf("%s seed %d: no deltas applied (%+v)", v.name, seed, m)
				}
			}
		}
	}
}
