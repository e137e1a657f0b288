package shard

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"milvideo/internal/faults"
	"milvideo/internal/index"
	"milvideo/internal/mil"
	"milvideo/internal/retrieval"
	"milvideo/internal/testkit"
	"milvideo/internal/window"
)

// checkPermutation asserts the ranking is a full permutation of db
// positions — the invariant a degraded query must still satisfy.
func checkPermutation(t *testing.T, ranking []int, db []window.VS) {
	t.Helper()
	if err := testkit.CheckRankingPermutation(ranking, db); err != nil {
		t.Fatal(err)
	}
}

// TestSlowShardDegrades: one shard stalled past the scatter deadline
// degrades the round to partial results — the query succeeds, returns
// a valid full permutation, and the loss is visible in the counters.
func TestSlowShardDegrades(t *testing.T) {
	db := shardSynthDB(11, 70)
	labels := shardLabels(db, 3, 2)
	probers := buildProbers(t, db, 3, index.KindVPTree, index.Options{})
	st := &Stats{}
	eng := &Engine{
		Inner:   retrieval.MILEngine{Opt: mil.DefaultOptions()},
		Probers: probers,
		C:       24,
		Timeout: 30 * time.Millisecond,
		Stats:   st,
		Fault: func(shard int, seq uint64) (time.Duration, error) {
			if shard == 1 {
				return 200 * time.Millisecond, nil
			}
			return 0, nil
		},
	}
	ranking, err := eng.Rank(db, labels)
	if err != nil {
		t.Fatalf("degraded round failed outright: %v", err)
	}
	checkPermutation(t, ranking, db)
	if st.PartialRounds.Load() < 1 {
		t.Fatalf("partial_rounds = %d, want >= 1", st.PartialRounds.Load())
	}
	if st.ShardTimeouts.Load() < 1 {
		t.Fatalf("shard_timeouts = %d, want >= 1", st.ShardTimeouts.Load())
	}
	if st.InjectedStalls.Load() < 1 {
		t.Fatalf("injected_stalls = %d, want >= 1", st.InjectedStalls.Load())
	}
}

// TestFailedShardDegrades: a hard shard error (not a timeout) also
// degrades to partial results with the error counter, not the
// timeout counter.
func TestFailedShardDegrades(t *testing.T) {
	db := shardSynthDB(12, 63)
	labels := shardLabels(db, 3, 1)
	probers := buildProbers(t, db, 3, index.KindVPTree, index.Options{})
	st := &Stats{}
	boom := errors.New("shard 1 lost")
	eng := &Engine{
		Inner:   retrieval.RocchioEngine{},
		Probers: probers,
		C:       20,
		Stats:   st,
		Fault: func(shard int, seq uint64) (time.Duration, error) {
			if shard == 1 {
				return 0, boom
			}
			return 0, nil
		},
	}
	ranking, err := eng.Rank(db, labels)
	if err != nil {
		t.Fatal(err)
	}
	checkPermutation(t, ranking, db)
	if st.PartialRounds.Load() != 1 || st.ShardErrors.Load() != 1 || st.InjectedFailures.Load() != 1 {
		t.Fatalf("partial=%d errors=%d injected=%d, want 1/1/1",
			st.PartialRounds.Load(), st.ShardErrors.Load(), st.InjectedFailures.Load())
	}
	if st.ShardTimeouts.Load() != 0 {
		t.Fatalf("hard failure counted as timeout")
	}
}

// TestAllShardsLostFallsBack: when every shard is lost the engine
// falls back to the full exact ranking rather than failing the query
// — and the result is identical to the unsharded ranking.
func TestAllShardsLostFallsBack(t *testing.T) {
	db := shardSynthDB(13, 49)
	labels := shardLabels(db, 2, 2)
	inner := retrieval.MILEngine{Opt: mil.DefaultOptions()}
	probers := buildProbers(t, db, 3, index.KindVPTree, index.Options{})
	st := &Stats{}
	eng := &Engine{
		Inner:   inner,
		Probers: probers,
		C:       16,
		Stats:   st,
		Fault: func(shard int, seq uint64) (time.Duration, error) {
			return 0, errors.New("total outage")
		},
	}
	got, err := eng.Rank(db, labels)
	if err != nil {
		t.Fatal(err)
	}
	want, err := inner.Rank(db, labels)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("all-shards-lost fallback is not the exact ranking")
	}
	if st.AllFailedRounds.Load() != 1 {
		t.Fatalf("all_failed_rounds = %d, want 1", st.AllFailedRounds.Load())
	}
	if st.ShardErrors.Load() != 3 {
		t.Fatalf("shard_errors = %d, want 3", st.ShardErrors.Load())
	}
}

// TestInjectorSlowShard wires the deterministic fault injector as the
// Fault hook: with SlowShard = 1.0 every scattered shard stalls past
// the deadline, so the engine degrades on schedule — and the same
// seed produces the same schedule.
func TestInjectorSlowShard(t *testing.T) {
	db := shardSynthDB(14, 56)
	labels := shardLabels(db, 3, 1)
	probers := buildProbers(t, db, 2, index.KindVPTree, index.Options{})
	inj := faults.New(faults.Config{Seed: 99, SlowShard: 1, SlowShardDur: 100 * time.Millisecond})
	st := &Stats{}
	eng := &Engine{
		Inner:   retrieval.RocchioEngine{},
		Probers: probers,
		C:       16,
		Timeout: 20 * time.Millisecond,
		Stats:   st,
		Fault:   inj.ShardFault,
	}
	ranking, err := eng.Rank(db, labels)
	if err != nil {
		t.Fatal(err)
	}
	checkPermutation(t, ranking, db)
	if st.AllFailedRounds.Load() != 1 {
		t.Fatalf("rate-1.0 slow shards should lose every shard: all_failed=%d", st.AllFailedRounds.Load())
	}
	if st.InjectedStalls.Load() != 2 {
		t.Fatalf("injected_stalls = %d, want 2", st.InjectedStalls.Load())
	}
}
