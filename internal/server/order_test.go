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
	"milvideo/internal/window"
)

// orderComputed reports whether the server's clip cache holds a
// computed heuristic order for the clip.
func orderComputed(srv *Server, clip string) bool {
	srv.clips.mu.Lock()
	e, ok := srv.clips.entries[clip]
	srv.clips.mu.Unlock()
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

// TestHeuristicOrderOnlyPrunedRounds: only indexed sessions that read
// the stored heuristic order compute it. Exact sessions never do. An
// indexed MIL session computes it in round 0, whose no-feedback
// fallback copies it, at C = N as at C < N. A session seeded by
// example ranks round 0 with its seed engine and leaves it
// uncomputed. One fresh server per row, unsharded and in-process
// sharded serving alike.
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
	example := rec.VSs[slices.IndexFunc(rec.VSs, func(vs window.VS) bool { return len(vs.TSs) > 0 })].Index
	for _, shards := range []int{1, 2} {
		for _, tc := range []struct {
			req      QueryRequest
			computed bool
		}{
			{QueryRequest{Clip: rec.Name, Index: "exact"}, false},
			{QueryRequest{Clip: rec.Name, Index: "vptree", Candidates: n}, true},
			{QueryRequest{Clip: rec.Name, Index: "vptree", Candidates: n / 4}, true},
			{QueryRequest{Clip: rec.Name, Index: "vptree", Candidates: n / 4, ExampleVS: &example}, false},
		} {
			srv, client := newTestServer(t, Config{DB: testCatalog(t, rec), Shards: shards})
			key := fmt.Sprintf("S=%d %s C=%d example=%v", shards, tc.req.Index, tc.req.Candidates, tc.req.ExampleVS != nil)
			tc.req.TopK = 10
			resp, err := client.Query(context.Background(), tc.req)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if got := orderComputed(srv, rec.Name); got != tc.computed {
				t.Fatalf("%s: order computed %v after round 0, want %v", key, got, tc.computed)
			}
			if tc.req.Index == "exact" {
				judgedFeedback(t, client, judge, resp)
				if orderComputed(srv, rec.Name) {
					t.Fatalf("%s: an exact feedback round computed the order", key)
				}
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

// TestHeuristicOrderPinnedAcrossReplace: a pinned indexed session
// keeps the parts, indexes and stored order it captured when its clip
// is replaced under it. Session A runs one judged round over record
// a, db.Replace swaps in a same-length record, a judged session over
// the new record rebuilds the clip's indexes and order, and then A
// runs three more rounds. Every round of A must equal the same session
// on a server that never saw the replace, at S ∈ {1, 3} over float
// rows and PQ codes.
func TestHeuristicOrderPinnedAcrossReplace(t *testing.T) {
	recA, err := ScaledDemoRecord(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	recB, err := ScaledDemoRecord(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	recA.Name, recB.Name = "a", "a"
	if len(recA.VSs) != len(recB.VSs) {
		t.Fatalf("records differ in length: %d and %d", len(recA.VSs), len(recB.VSs))
	}
	judgeA, err := JudgeFromRecord(recA, nil)
	if err != nil {
		t.Fatal(err)
	}
	judgeB, err := JudgeFromRecord(recB, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := QueryRequest{Clip: "a", Index: "vptree", Candidates: len(recA.VSs) / 4, TopK: 10}
	for _, shards := range []int{1, 3} {
		for _, quant := range []string{"", "pq"} {
			key := fmt.Sprintf("S=%d quant=%q", shards, quant)
			// A five-round session on a server that never sees the
			// replace.
			_, refClient := newTestServer(t, Config{DB: testCatalog(t, recA), Shards: shards, Quant: quant})
			resp, err := refClient.Query(ctx, req)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			want := [][]int{resp.Ranking}
			for r := 1; r < 5; r++ {
				resp, _ = judgedFeedback(t, refClient, judgeA, resp)
				want = append(want, resp.Ranking)
			}

			db := testCatalog(t, recA)
			srv, client := newTestServer(t, Config{DB: db, Shards: shards, Quant: quant})
			if resp, err = client.Query(ctx, req); err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			got := [][]int{resp.Ranking}
			resp, _ = judgedFeedback(t, client, judgeA, resp)
			got = append(got, resp.Ranking)

			if err := db.Replace(recB); err != nil {
				t.Fatal(err)
			}
			other, err := client.Query(ctx, req)
			if err != nil {
				t.Fatalf("%s: session over the replaced record: %v", key, err)
			}
			judgedFeedback(t, client, judgeB, other)
			st, err := client.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if st.Index.ForcedRebuilds != int64(shards) || !orderComputed(srv, "a") {
				t.Fatalf("%s: the replaced record's session rebuilt %d of %d part indexes (order computed %v)",
					key, st.Index.ForcedRebuilds, shards, orderComputed(srv, "a"))
			}

			for r := 2; r < 5; r++ {
				resp, _ = judgedFeedback(t, client, judgeA, resp)
				got = append(got, resp.Ranking)
			}
			for r := range want {
				if !slices.Equal(got[r], want[r]) {
					t.Fatalf("%s: round %d of the pinned session moved after the replace", key, r)
				}
			}
		}
	}
}
