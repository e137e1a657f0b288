package server

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"milvideo/internal/core"
	"milvideo/internal/index"
	"milvideo/internal/mil"
	"milvideo/internal/shard"
)

// orderComputed reports whether the server's memo holds a computed
// heuristic order for the clip.
func orderComputed(srv *Server, clip string) bool {
	srv.memo.mu.Lock()
	e, ok := srv.memo.entries[clip]
	srv.memo.mu.Unlock()
	if !ok {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.order != nil
}

// judgedFeedback labels a round's top-k by judge and posts them as
// the session's next round.
func judgedFeedback(t *testing.T, client *Client, judge Judge, resp *RoundResponse) (*RoundResponse, []FeedbackLabel) {
	t.Helper()
	labels := make([]FeedbackLabel, len(resp.TopK))
	for i, e := range resp.TopK {
		labels[i] = FeedbackLabel{VS: e.VS, Relevant: judge(e)}
	}
	next, err := client.Feedback(context.Background(), resp.Session, labels)
	if err != nil {
		t.Fatal(err)
	}
	return next, labels
}

// TestHeuristicOrderOnlyPrunedRounds: exact sessions, C ≥ N sessions
// and rounds without probes never compute the stored heuristic order;
// the first pruned round does. Unsharded and in-process sharded
// serving alike.
func TestHeuristicOrderOnlyPrunedRounds(t *testing.T) {
	rec, err := ScaledDemoRecord(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	judge, err := JudgeFromRecord(rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := len(rec.VSs)
	for _, shards := range []int{1, 2} {
		srv, client := newTestServer(t, Config{DB: testCatalog(t, rec), Shards: shards})
		for _, tc := range []struct {
			req    QueryRequest
			pruned bool
		}{
			{QueryRequest{Clip: rec.Name, Index: "exact"}, false},
			{QueryRequest{Clip: rec.Name, Index: "vptree", Candidates: n}, false},
			{QueryRequest{Clip: rec.Name, Index: "vptree", Candidates: n / 4}, true},
		} {
			key := fmt.Sprintf("S=%d %s C=%d", shards, tc.req.Index, tc.req.Candidates)
			tc.req.TopK = 10
			resp, err := client.Query(context.Background(), tc.req)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if orderComputed(srv, rec.Name) {
				t.Fatalf("%s: round 0 has no probes, yet the order was computed", key)
			}
			judgedFeedback(t, client, judge, resp)
			if got := orderComputed(srv, rec.Name); got != tc.pruned {
				t.Fatalf("%s: order computed %v after a feedback round, want %v", key, got, tc.pruned)
			}
		}
	}
}

// TestHeuristicOrderFollowsBacking: the stored order is reused by VS
// backing identity, never by length. A pruned session stores clip a's
// order; db.Replace then swaps in a different record of the same
// length, and a new session's pruned round must rank exactly as an
// unsharded pruned engine with no stored order over the new record.
func TestHeuristicOrderFollowsBacking(t *testing.T) {
	recA, err := ScaledDemoRecord(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	recB, err := ScaledDemoRecord(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	recA.Name, recB.Name = "a", "a"
	db := testCatalog(t, recA)
	srv, client := newTestServer(t, Config{DB: db})
	ctx := context.Background()
	c := len(recB.VSs) / 4
	req := QueryRequest{Clip: "a", Index: "vptree", Candidates: c, TopK: 10}

	judgeA, err := JudgeFromRecord(recA, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	judgedFeedback(t, client, judgeA, resp)
	if !orderComputed(srv, "a") {
		t.Fatal("a pruned round left no stored order")
	}

	if err := db.Replace(recB); err != nil {
		t.Fatal(err)
	}
	judgeB, err := JudgeFromRecord(recB, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err = client.Query(ctx, req); err != nil {
		t.Fatal(err)
	}
	resp, posted := judgedFeedback(t, client, judgeB, resp)

	labels := make(map[int]mil.Label, len(posted))
	for _, l := range posted {
		labels[l.VS] = mil.Negative
		if l.Relevant {
			labels[l.VS] = mil.Positive
		}
	}
	inner, err := core.EngineByName("", nil)
	if err != nil {
		t.Fatal(err)
	}
	bi, err := index.Build(recB.VSs, index.KindVPTree, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref := &shard.Engine{Inner: inner, Probers: []shard.Prober{shard.LocalProber{VSs: recB.VSs, Index: bi}}, C: c}
	ranking, err := ref.Rank(recB.VSs, labels)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int, len(ranking))
	for i, pos := range ranking {
		want[i] = recB.VSs[pos].Index
	}
	if !slices.Equal(resp.Ranking, want) {
		t.Fatal("pruned round over the replaced record diverges from an engine computing its own order")
	}
}
