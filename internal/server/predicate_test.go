package server

import (
	"context"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"milvideo/internal/predicate"
)

// demoPredicate is the composed acceptance query — seq(stop∧region,
// go∧east∧region, 5s), the first canned demo predicate.
func demoPredicate() *predicate.Node { return DemoPredicates()[0] }

// demoRelevantInTop10 asserts every relevant VS of the demo mix
// (indices 0..5) sits in the first 10 ranked positions.
func demoRelevantInTop10(t *testing.T, ranking []int, when string) {
	t.Helper()
	head := make(map[int]bool, 10)
	for _, vs := range ranking[:10] {
		head[vs] = true
	}
	for vs := 0; vs < 6; vs++ {
		if !head[vs] {
			t.Fatalf("%s: relevant VS %d not in top-10 %v", when, vs, ranking[:10])
		}
	}
}

// TestQueryPredicate is the serving acceptance gate for the predicate
// language: the composed seq(stop∧region, go∧east∧region) query over
// the demo catalog retrieves every staged incident at recall@10, and
// MIL feedback rounds keep them there.
func TestQueryPredicate(t *testing.T) {
	rec := synthRecord(t, 1, 6, 6, 36) // the demo catalog mix
	judge, err := JudgeFromRecord(rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, client := newTestServer(t, Config{DB: testCatalog(t, rec)})
	ctx := context.Background()

	resp, err := client.Query(ctx, QueryRequest{Clip: rec.Name, TopK: 10, Predicate: demoPredicate()})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Engine, "predicate:seq(") {
		t.Fatalf("predicate session reports engine %q", resp.Engine)
	}
	demoRelevantInTop10(t, resp.Ranking, "round 0")

	// Judged feedback hands the session to the MIL learner; the staged
	// incidents must survive the takeover round by round.
	for r := 1; r < 4; r++ {
		labels := make([]FeedbackLabel, len(resp.TopK))
		for i, e := range resp.TopK {
			labels[i] = FeedbackLabel{VS: e.VS, Relevant: judge(e)}
		}
		if resp, err = client.Feedback(ctx, resp.Session, labels); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		demoRelevantInTop10(t, resp.Ranking, "after feedback")
	}
}

// TestQueryPredicateIdentity: the same judged predicate session served
// three ways — exact, through the unsharded pruned engine at C = N, and
// scatter–gathered across 3 in-process shards — returns identical
// final rankings, and the sharded round-0 scatter is accounted as a
// seeded round (its probes came from the predicate's own seeds, not
// positive labels).
func TestQueryPredicateIdentity(t *testing.T) {
	rec := synthRecord(t, 1, 6, 6, 36)
	judge, err := JudgeFromRecord(rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := len(rec.VSs)

	session := func(client *Client) []int {
		t.Helper()
		ctx := context.Background()
		resp, err := client.Query(ctx, QueryRequest{Clip: rec.Name, TopK: 10, Predicate: demoPredicate()})
		if err != nil {
			t.Fatal(err)
		}
		for r := 1; r < 4; r++ {
			labels := make([]FeedbackLabel, len(resp.TopK))
			for i, e := range resp.TopK {
				labels[i] = FeedbackLabel{VS: e.VS, Relevant: judge(e)}
			}
			if resp, err = client.Feedback(ctx, resp.Session, labels); err != nil {
				t.Fatal(err)
			}
		}
		final, err := client.Ranking(ctx, resp.Session, 0)
		if err != nil {
			t.Fatal(err)
		}
		return final.Ranking
	}

	_, exactClient := newTestServer(t, Config{DB: testCatalog(t, rec)})
	want := session(exactClient)

	_, candClient := newTestServer(t, Config{DB: testCatalog(t, rec), DefaultIndex: "vptree", DefaultCandidates: n})
	if got := session(candClient); !reflect.DeepEqual(got, want) {
		t.Fatalf("candidate C=N predicate ranking diverges\ngot  %v\nwant %v", got, want)
	}

	_, shardClient := newTestServer(t, Config{
		DB: testCatalog(t, rec), Shards: 3, DefaultIndex: "vptree", DefaultCandidates: n,
	})
	if got := session(shardClient); !reflect.DeepEqual(got, want) {
		t.Fatalf("sharded C=N predicate ranking diverges\ngot  %v\nwant %v", got, want)
	}
	stats, err := shardClient.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Shard == nil || stats.Index.SeededRounds < 1 {
		t.Fatalf("predicate round 0 not accounted as a seeded scatter: %+v", stats.Index)
	}
}

// TestQueryPredicateSeededPruning: below C = N the predicate's own
// seed probes drive the round-0 candidate set — the round counts as
// seeded in /v1/stats and the staged incidents survive the pruning.
func TestQueryPredicateSeededPruning(t *testing.T) {
	rec := synthRecord(t, 1, 6, 6, 36)
	_, client := newTestServer(t, Config{DB: testCatalog(t, rec)})
	ctx := context.Background()

	resp, err := client.Query(ctx, QueryRequest{
		Clip: rec.Name, TopK: 10, Predicate: demoPredicate(), Index: "vptree", Candidates: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	demoRelevantInTop10(t, resp.Ranking, "seeded pruned round")
	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Index.SeededRounds != 1 || stats.Index.PrunedRounds != 1 {
		t.Fatalf("seeded/pruned rounds: %+v", stats.Index)
	}
}

// TestQueryPredicateRejects: structurally invalid ASTs and seed-mode
// combinations come back as typed 400s.
func TestQueryPredicateRejects(t *testing.T) {
	rec := synthRecord(t, 3, 3, 3, 10)
	_, client := newTestServer(t, Config{DB: testCatalog(t, rec)})
	ctx := context.Background()

	cases := []struct {
		name string
		req  QueryRequest
	}{
		{"unknown op", QueryRequest{Clip: rec.Name, Predicate: &predicate.Node{Op: "teleport"}}},
		{"speed without bounds", QueryRequest{Clip: rec.Name, Predicate: &predicate.Node{Op: predicate.OpSpeed}}},
		{"seq without within", QueryRequest{Clip: rec.Name, Predicate: &predicate.Node{
			Op: predicate.OpSeq,
			A:  &predicate.Node{Op: predicate.OpStop}, B: &predicate.Node{Op: predicate.OpGo},
		}}},
		{"region without geometry", QueryRequest{Clip: rec.Name, Predicate: &predicate.Node{Op: predicate.OpRegion}}},
		{"and with one arm", QueryRequest{Clip: rec.Name, Predicate: &predicate.Node{
			Op: predicate.OpAnd, Args: []*predicate.Node{{Op: predicate.OpStop}},
		}}},
		{"predicate and example", QueryRequest{
			Clip: rec.Name, ExampleVS: ptr(0), Predicate: &predicate.Node{Op: predicate.OpStop},
		}},
		{"predicate and sketch", QueryRequest{
			Clip:      rec.Name,
			Sketch:    &SketchQuery{Points: [][2]float64{{1, 1}, {2, 2}}},
			Predicate: &predicate.Node{Op: predicate.OpStop},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := client.Query(ctx, c.req)
			wantStatus(t, err, http.StatusBadRequest)
		})
	}
}
