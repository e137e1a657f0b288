package retrieval

import (
	"errors"
	"math/rand"
	"testing"

	"milvideo/internal/mil"
	"milvideo/internal/window"
)

// TestRankRoundDegenerateInputs covers the malformed requests the
// network path can deliver: every one must come back as a typed
// error, never a panic.
func TestRankRoundDegenerateInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	db, _ := synthDB(rng, 2, 2, 4)
	eng := MILEngine{Opt: mil.DefaultOptions()}

	if _, _, err := RankRound(nil, db, nil, 5); !errors.Is(err, ErrNilEngine) {
		t.Fatalf("nil engine: %v", err)
	}
	if _, _, err := RankRound(eng, nil, nil, 5); !errors.Is(err, ErrEmptyDB) {
		t.Fatalf("empty db: %v", err)
	}
	if _, _, err := RankRound(eng, db, nil, 0); !errors.Is(err, ErrBadTopK) {
		t.Fatalf("zero topK: %v", err)
	}
	if _, _, err := RankRound(eng, db, nil, -3); !errors.Is(err, ErrBadTopK) {
		t.Fatalf("negative topK: %v", err)
	}
	dup := append(append([]window.VS(nil), db...), db[0])
	if _, _, err := RankRound(eng, dup, nil, 5); !errors.Is(err, ErrDuplicateIndex) {
		t.Fatalf("duplicate index: %v", err)
	}

	// k far beyond the database size clamps instead of erroring or
	// panicking: the whole database is the answer.
	ranking, top, err := RankRound(eng, db, nil, 10*len(db))
	if err != nil {
		t.Fatalf("oversized k: %v", err)
	}
	if len(ranking) != len(db) || len(top) != len(db) {
		t.Fatalf("oversized k: ranking %d, top %d, want both %d", len(ranking), len(top), len(db))
	}
}

// TestRankRoundEnginesOnDegenerateDBs runs every built-in engine over
// databases with empty VSs (zero trajectory sequences): legitimate
// windows of an empty road, which must rank without panicking.
func TestRankRoundEnginesOnDegenerateDBs(t *testing.T) {
	empty := []window.VS{{Index: 0}, {Index: 1}, {Index: 2}}
	engines := []Engine{
		MILEngine{Opt: mil.DefaultOptions()},
		WeightedEngine{},
		RocchioEngine{},
	}
	for _, e := range engines {
		ranking, top, err := RankRound(e, empty, nil, 2)
		if err != nil {
			t.Fatalf("%s over all-empty db: %v", e.Name(), err)
		}
		if len(ranking) != 3 || len(top) != 2 {
			t.Fatalf("%s: ranking %d, top %d", e.Name(), len(ranking), len(top))
		}
		// With positive labels on empty bags the learner has no
		// instances; the engines must still answer.
		labels := map[int]mil.Label{0: mil.Positive, 1: mil.Negative}
		if _, _, err := RankRound(e, empty, labels, 2); err != nil {
			t.Fatalf("%s with labels over all-empty db: %v", e.Name(), err)
		}
	}
}

// TestSessionRunTypedErrors pins the session-level validation onto the
// same sentinels.
func TestSessionRunTypedErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	db, rel := synthDB(rng, 2, 2, 4)
	eng := MILEngine{Opt: mil.DefaultOptions()}

	cases := []struct {
		name string
		sess *Session
		eng  Engine
		n    int
		want error
	}{
		{"nil engine", &Session{DB: db, Oracle: oracleFor(rel), TopK: 5}, nil, 2, ErrNilEngine},
		{"nil oracle", &Session{DB: db, TopK: 5}, eng, 2, ErrNilOracle},
		{"zero rounds", &Session{DB: db, Oracle: oracleFor(rel), TopK: 5}, eng, 0, ErrBadRounds},
		{"zero topK", &Session{DB: db, Oracle: oracleFor(rel)}, eng, 2, ErrBadTopK},
		{"empty db", &Session{Oracle: oracleFor(rel), TopK: 5}, eng, 2, ErrEmptyDB},
	}
	for _, c := range cases {
		if _, err := c.sess.Run(c.eng, c.n); !errors.Is(err, c.want) {
			t.Fatalf("%s: got %v, want %v", c.name, err, c.want)
		}
	}
}
