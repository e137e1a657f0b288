// Predicate-seeded candidate sessions on the unsharded pruned engine,
// tested against the real compiled predicate engine. This lives
// outside package retrieval because predicate imports retrieval
// (through query); the fake-seeder tests in candidate_test.go cover
// the same plumbing with synthetic probes.
package retrieval_test

import (
	"math"
	"testing"

	"milvideo/internal/event"
	"milvideo/internal/geom"
	"milvideo/internal/index"
	"milvideo/internal/mil"
	"milvideo/internal/predicate"
	"milvideo/internal/shard"
	"milvideo/internal/window"
)

// predDB builds a small kinematic catalog: every 6th bag holds a
// vehicle braking to a stop inside the center region, the rest cruise
// through it.
func predDB(n int) []window.VS {
	const rate = 5
	model := event.AccidentModel{}
	mkTS := func(id int, pos ...geom.Point) window.TS {
		ts := window.TS{TrackID: id, Class: "car"}
		for i := 2; i < len(pos); i++ {
			s := event.Sample{Frame: i * rate, Pos: pos[i], MinDist: math.Inf(1), Area: 60}
			s.Motion = pos[i].Sub(pos[i-1])
			s.PrevMotion = pos[i-1].Sub(pos[i-2])
			s.PrevValid = true
			ts.Samples = append(ts.Samples, s)
			ts.Vectors = append(ts.Vectors, model.Vector(s, rate))
		}
		return ts
	}
	db := make([]window.VS, n)
	for i := range db {
		y := 100 + float64(i%5)*8
		var ts window.TS
		if i%6 == 0 {
			ts = mkTS(i+1,
				geom.Point{X: 55, Y: y}, geom.Point{X: 100, Y: y},
				geom.Point{X: 100.5, Y: y}, geom.Point{X: 101, Y: y}, geom.Point{X: 101.3, Y: y})
		} else {
			x := 20 + float64(i%4)*10
			ts = mkTS(i+1,
				geom.Point{X: x, Y: y}, geom.Point{X: x + 25, Y: y},
				geom.Point{X: x + 50, Y: y}, geom.Point{X: x + 75, Y: y}, geom.Point{X: x + 100, Y: y})
		}
		db[i] = window.VS{Index: i, StartFrame: i * 15, EndFrame: i*15 + 10, TSs: []window.TS{ts}}
	}
	return db
}

func stopInCenter(t *testing.T) *predicate.Engine {
	t.Helper()
	eng, err := predicate.Compile(&predicate.Node{
		Op: predicate.OpAnd,
		Args: []*predicate.Node{
			{Op: predicate.OpStop},
			{Op: predicate.OpRegion, Rect: []float64{0.25, 0.25, 0.75, 0.75}},
		},
	}, predicate.Env{})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestCandidatePredicateSeededIdentity: a real predicate engine at
// C=N, with zero feedback, ranks identically wrapped and unwrapped.
func TestCandidatePredicateSeededIdentity(t *testing.T) {
	db := predDB(48)
	eng := stopInCenter(t)
	want, err := eng.Rank(db, map[int]mil.Label{})
	if err != nil {
		t.Fatal(err)
	}
	bi, err := index.Build(db, index.KindVPTree, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := wholeDB(eng, db, bi, len(db), nil).Rank(db, map[int]mil.Label{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("predicate-seeded C=N rank diverges at %d: got %d want %d", i, got[i], want[i])
		}
	}
}

// TestCandidatePredicateSeededPrunes: below C=N the predicate's own
// probes prune round 0 (a seeded round), and every incident bag the
// predicate matches survives into the re-ranked head.
func TestCandidatePredicateSeededPrunes(t *testing.T) {
	db := predDB(48)
	eng := stopInCenter(t)
	bi, err := index.Build(db, index.KindVPTree, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stats := &shard.Stats{}
	got, err := wholeDB(eng, db, bi, 12, stats).Rank(db, map[int]mil.Label{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SeededRounds.Load() != 1 || stats.PrunedRounds.Load() != 1 {
		t.Fatalf("seeded=%d pruned=%d, want one seeded pruned round", stats.SeededRounds.Load(), stats.PrunedRounds.Load())
	}
	inHead := map[int]bool{}
	for _, p := range got[:12] {
		inHead[p] = true
	}
	for i := 0; i < len(db); i += 6 {
		if !inHead[i] {
			t.Fatalf("incident bag %d pruned out of the head %v", i, got[:12])
		}
	}
}
