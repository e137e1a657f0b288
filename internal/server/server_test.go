package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"milvideo/internal/core"
	"milvideo/internal/mil"
	"milvideo/internal/retrieval"
)

// newTestServer spins up a Server over the catalog behind an
// httptest listener and returns a client against it.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, &Client{BaseURL: ts.URL}
}

// wantStatus asserts err is an *APIError with the given status.
func wantStatus(t *testing.T, err error, status int) {
	t.Helper()
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("got %v, want APIError %d", err, status)
	}
	if apiErr.Status != status {
		t.Fatalf("got HTTP %d (%s), want %d", apiErr.Status, apiErr.Message, status)
	}
}

// TestServerOfflineIdentity is the acceptance gate: for the same
// seeded database, query, and oracle feedback, the rankings returned
// over HTTP per round must be identical to retrieval.Session.Run with
// a MILCache — round by round, position by position.
func TestServerOfflineIdentity(t *testing.T) {
	const topK, rounds = 8, 4
	rec := synthRecord(t, 42, 5, 5, 20)

	// Offline reference: the oracle-driven session over the same VSs.
	oracle, err := core.OracleFromRecord(rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	offline := &retrieval.Session{DB: rec.VSs, Oracle: oracle, TopK: topK}
	ref, err := offline.Run(retrieval.MILEngine{Opt: mil.DefaultOptions(), Cache: retrieval.NewMILCache()}, rounds)
	if err != nil {
		t.Fatal(err)
	}
	// The reference rankings are db positions; the wire carries VS
	// indices.
	refIndices := func(r int) (ranking, top []int) {
		for _, pos := range ref.Rounds[r].Ranking {
			ranking = append(ranking, rec.VSs[pos].Index)
		}
		for _, pos := range ref.Rounds[r].TopK {
			top = append(top, rec.VSs[pos].Index)
		}
		return ranking, top
	}

	// The served session, judged by the wire-side ground truth.
	judge, err := JudgeFromRecord(rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, client := newTestServer(t, Config{DB: testCatalog(t, rec)})
	ctx := context.Background()
	resp, err := client.Query(ctx, QueryRequest{Clip: rec.Name, TopK: topK})
	if err != nil {
		t.Fatal(err)
	}
	compare := func(r int, resp *RoundResponse) {
		t.Helper()
		if resp.Round != r {
			t.Fatalf("round %d came back numbered %d", r, resp.Round)
		}
		wantRanking, wantTop := refIndices(r)
		if len(resp.Ranking) != len(wantRanking) {
			t.Fatalf("round %d: ranking has %d entries, want %d", r, len(resp.Ranking), len(wantRanking))
		}
		for i, idx := range resp.Ranking {
			if idx != wantRanking[i] {
				t.Fatalf("round %d: ranking[%d] = %d over HTTP, %d offline", r, i, idx, wantRanking[i])
			}
		}
		if len(resp.TopK) != len(wantTop) {
			t.Fatalf("round %d: top-k has %d entries, want %d", r, len(resp.TopK), len(wantTop))
		}
		for i, e := range resp.TopK {
			if e.VS != wantTop[i] {
				t.Fatalf("round %d: topk[%d] = VS %d over HTTP, VS %d offline", r, i, e.VS, wantTop[i])
			}
		}
	}
	compare(0, resp)
	for r := 1; r < rounds; r++ {
		labels := make([]FeedbackLabel, len(resp.TopK))
		for i, e := range resp.TopK {
			labels[i] = FeedbackLabel{VS: e.VS, Relevant: judge(e)}
		}
		resp, err = client.Feedback(ctx, resp.Session, labels)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		compare(r, resp)
	}
}

// TestStatsKernelCacheHitRatio: after any multi-round MIL session the
// per-session Gram reuse must surface as a nonzero kernel-cache hit
// ratio in /v1/stats — and survive the session's deletion.
func TestStatsKernelCacheHitRatio(t *testing.T) {
	rec := synthRecord(t, 7, 5, 5, 20)
	judge, err := JudgeFromRecord(rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, client := newTestServer(t, Config{DB: testCatalog(t, rec)})
	ctx := context.Background()
	resp, err := client.Query(ctx, QueryRequest{Clip: rec.Name, TopK: 6})
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
	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.KernelCache.Hits == 0 || stats.KernelCache.HitRatio <= 0 {
		t.Fatalf("multi-round session left no cache hits: %+v", stats.KernelCache)
	}
	if stats.RoundsServed != 4 {
		t.Fatalf("rounds served %d, want 4", stats.RoundsServed)
	}
	if stats.SessionsLive != 1 || stats.SessionsCreated != 1 {
		t.Fatalf("session counters off: %+v", stats)
	}
	if stats.RerankLatency.Count != 4 {
		t.Fatalf("latency histogram saw %d rounds, want 4", stats.RerankLatency.Count)
	}

	// Deleting the session retires its counters instead of losing them.
	if err := client.Delete(ctx, resp.Session); err != nil {
		t.Fatal(err)
	}
	after, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after.KernelCache.Hits < stats.KernelCache.Hits {
		t.Fatalf("deletion lost cache hits: %d -> %d", stats.KernelCache.Hits, after.KernelCache.Hits)
	}
	if after.SessionsLive != 0 || after.SessionsDeleted != 1 {
		t.Fatalf("post-delete counters off: %+v", after)
	}
}

// TestQuerySeeding covers the example- and sketch-seeded sessions: the
// initial ranking comes from the seed engine, the learner takes over
// on feedback, and both engines report through the session's name.
func TestQuerySeeding(t *testing.T) {
	rec := synthRecord(t, 11, 4, 4, 12)
	_, client := newTestServer(t, Config{DB: testCatalog(t, rec)})
	ctx := context.Background()

	exampleVS := rec.VSs[0].Index
	resp, err := client.Query(ctx, QueryRequest{Clip: rec.Name, TopK: 5, ExampleVS: &exampleVS})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Engine, "example") {
		t.Fatalf("example-seeded session reports engine %q", resp.Engine)
	}
	if len(resp.TopK) != 5 {
		t.Fatalf("example query returned %d results, want 5", len(resp.TopK))
	}
	if _, err := client.Feedback(ctx, resp.Session, []FeedbackLabel{{VS: resp.TopK[0].VS, Relevant: true}}); err != nil {
		t.Fatalf("feedback after example seed: %v", err)
	}

	resp, err = client.Query(ctx, QueryRequest{
		Clip: rec.Name, TopK: 5,
		Sketch: &SketchQuery{Points: [][2]float64{{10, 40}, {60, 40}, {110, 45}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Engine, "sketch") {
		t.Fatalf("sketch-seeded session reports engine %q", resp.Engine)
	}
	if len(resp.TopK) != 5 {
		t.Fatalf("sketch query returned %d results, want 5", len(resp.TopK))
	}
}

// TestAPIDegenerateInputs: every malformed request the network can
// deliver comes back as a typed HTTP error, never a panic or a hang.
func TestAPIDegenerateInputs(t *testing.T) {
	rec := synthRecord(t, 3, 3, 3, 10)
	_, client := newTestServer(t, Config{DB: testCatalog(t, rec)})
	ctx := context.Background()

	cases := []struct {
		name   string
		req    QueryRequest
		status int
	}{
		{"unknown clip", QueryRequest{Clip: "nope"}, http.StatusNotFound},
		{"missing clip", QueryRequest{}, http.StatusBadRequest},
		{"unknown engine", QueryRequest{Clip: rec.Name, Engine: "nope"}, http.StatusBadRequest},
		{"negative topk", QueryRequest{Clip: rec.Name, TopK: -1}, http.StatusBadRequest},
		{"missing example VS", QueryRequest{Clip: rec.Name, ExampleVS: ptr(99999)}, http.StatusBadRequest},
		{"short sketch", QueryRequest{Clip: rec.Name, Sketch: &SketchQuery{Points: [][2]float64{{1, 1}}}}, http.StatusBadRequest},
		{"example and sketch", QueryRequest{
			Clip: rec.Name, ExampleVS: ptr(0),
			Sketch: &SketchQuery{Points: [][2]float64{{1, 1}, {2, 2}}},
		}, http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := client.Query(ctx, c.req)
			wantStatus(t, err, c.status)
		})
	}

	t.Run("bad query body", func(t *testing.T) {
		resp, err := http.Post(client.BaseURL+"/v1/query", "application/json", strings.NewReader("{not json"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad body got HTTP %d", resp.StatusCode)
		}
	})
	t.Run("unknown session", func(t *testing.T) {
		_, err := client.Ranking(ctx, "deadbeef", 0)
		wantStatus(t, err, http.StatusNotFound)
		_, err = client.Feedback(ctx, "deadbeef", []FeedbackLabel{{VS: 0, Relevant: true}})
		wantStatus(t, err, http.StatusNotFound)
		wantStatus(t, client.Delete(ctx, "deadbeef"), http.StatusNotFound)
	})

	resp, err := client.Query(ctx, QueryRequest{Clip: rec.Name, TopK: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Run("empty feedback", func(t *testing.T) {
		_, err := client.Feedback(ctx, resp.Session, nil)
		wantStatus(t, err, http.StatusBadRequest)
	})
	t.Run("label unknown VS", func(t *testing.T) {
		_, err := client.Feedback(ctx, resp.Session, []FeedbackLabel{{VS: 99999, Relevant: true}})
		wantStatus(t, err, http.StatusBadRequest)
		// Known labels, repeated ones and a first unknown one further
		// down: the request is rejected and names that unknown VS.
		first, last := rec.VSs[0].Index, rec.VSs[len(rec.VSs)-1].Index
		_, err = client.Feedback(ctx, resp.Session, []FeedbackLabel{
			{VS: last}, {VS: first, Relevant: true}, {VS: last}, {VS: -7}, {VS: 99999},
		})
		wantStatus(t, err, http.StatusBadRequest)
		if !strings.Contains(err.Error(), "unknown VS -7") {
			t.Fatalf("rejection %q does not name the first unknown VS", err)
		}
	})
	t.Run("bad ranking k", func(t *testing.T) {
		_, err := client.Ranking(ctx, resp.Session, 0)
		if err != nil {
			t.Fatal(err)
		}
		httpResp, err := http.Get(client.BaseURL + "/v1/session/" + resp.Session + "/ranking?k=bogus")
		if err != nil {
			t.Fatal(err)
		}
		httpResp.Body.Close()
		if httpResp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad k got HTTP %d", httpResp.StatusCode)
		}
	})
	t.Run("ranking k clamps", func(t *testing.T) {
		got, err := client.Ranking(ctx, resp.Session, 10*len(rec.VSs))
		if err != nil {
			t.Fatal(err)
		}
		if len(got.TopK) != len(rec.VSs) {
			t.Fatalf("oversized k returned %d entries, want %d", len(got.TopK), len(rec.VSs))
		}
	})
}

func ptr(v int) *int { return &v }
