package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"milvideo/internal/core"
	"milvideo/internal/index"
	"milvideo/internal/mil"
	"milvideo/internal/retrieval"
	"milvideo/internal/shard"
)

// recallAt10 measures the overlap of the first 10 ranked positions.
func recallAt10(got, want []int) float64 {
	k := 10
	if len(want) < k {
		k = len(want)
	}
	set := make(map[int]bool, k)
	for _, p := range want[:k] {
		set[p] = true
	}
	hit := 0
	for _, p := range got[:k] {
		if set[p] {
			hit++
		}
	}
	return float64(hit) / float64(k)
}

// TestIndexSmokeRecall is the CI smoke gate for the candidate index:
// on the demo catalog, a 5-round feedback session routed through the
// VP-tree — over float rows or PQ codes — on the unsharded (S = 1)
// pruned engine must keep recall@10 against the exact ranking
// at 1.0 with C = N (identity by construction: completion hits
// reassemble the whole clip for the exact re-rank) and at ≥ 0.9 with
// C = N/4. Recall is judged per round against the exact engine
// run on the very same accumulated labels, so it isolates pruning
// error from feedback drift.
func TestIndexSmokeRecall(t *testing.T) {
	rec := synthRecord(t, 1, 6, 6, 36) // the demo catalog mix
	oracle, err := core.OracleFromRecord(rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	db := rec.VSs
	n := len(db)
	for _, quant := range []index.QuantKind{index.QuantNone, index.QuantPQ} {
		bi, err := index.Build(db, index.KindVPTree, index.Options{Quant: quant})
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			c     int
			floor float64
		}{
			{n, 1.0},
			{n / 4, 0.9},
		} {
			exact := retrieval.MILEngine{Opt: mil.DefaultOptions()}
			indexed := &shard.Engine{
				Inner:   retrieval.MILEngine{Opt: mil.DefaultOptions()},
				Probers: []shard.Prober{shard.LocalProber{VSs: db, Index: bi}},
				C:       tc.c,
			}
			labels := make(map[int]mil.Label)
			for round := 0; round < 5; round++ {
				gotRank, gotTop, err := retrieval.RankRound(indexed, db, labels, 20)
				if err != nil {
					t.Fatalf("quant=%q C=%d round %d: %v", quant, tc.c, round, err)
				}
				wantRank, _, err := retrieval.RankRound(exact, db, labels, 20)
				if err != nil {
					t.Fatalf("quant=%q C=%d round %d (exact): %v", quant, tc.c, round, err)
				}
				if r := recallAt10(gotRank, wantRank); r < tc.floor {
					t.Fatalf("quant=%q C=%d round %d: recall@10 %.2f below %.2f", quant, tc.c, round, r, tc.floor)
				}
				for _, pos := range gotTop {
					if oracle.Relevant(db[pos]) {
						labels[db[pos].Index] = mil.Positive
					} else {
						labels[db[pos].Index] = mil.Negative
					}
				}
			}
		}
	}
}

// TestQueryIndexAPI covers the wire surface of the candidate index:
// body fields, URL overrides, stats accounting, cache reuse, and
// invalidation on ingest.
func TestQueryIndexAPI(t *testing.T) {
	rec := synthRecord(t, 9, 5, 5, 20)
	judge, err := JudgeFromRecord(rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	catalog := testCatalog(t, rec)
	srv, client := newTestServer(t, Config{DB: catalog})
	ctx := context.Background()

	resp, err := client.Query(ctx, QueryRequest{Clip: rec.Name, TopK: 8, Index: "vptree", Candidates: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Engine, "sharded(S=1,C=10)") {
		t.Fatalf("indexed session reports engine %q", resp.Engine)
	}
	labels := make([]FeedbackLabel, len(resp.TopK))
	for i, e := range resp.TopK {
		labels[i] = FeedbackLabel{VS: e.VS, Relevant: judge(e)}
	}
	if _, err := client.Feedback(ctx, resp.Session, labels); err != nil {
		t.Fatal(err)
	}
	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Index.Builds != 1 || stats.Index.CacheHits != 0 {
		t.Fatalf("after one indexed session: builds=%d hits=%d", stats.Index.Builds, stats.Index.CacheHits)
	}
	if stats.Index.FullRounds < 1 {
		t.Fatalf("round 0 should count as a full round: %+v", stats.Index)
	}
	if stats.Index.PrunedRounds != 1 || stats.Index.Probes == 0 {
		t.Fatalf("feedback round should prune through the index: %+v", stats.Index)
	}
	if stats.Index.BuildLatency.Count != 1 {
		t.Fatalf("build latency saw %d builds, want 1", stats.Index.BuildLatency.Count)
	}

	// A second session over the same catalog generation reuses the
	// built index.
	if _, err := client.Query(ctx, QueryRequest{Clip: rec.Name, TopK: 8, Index: "vptree", Candidates: 10}); err != nil {
		t.Fatal(err)
	}
	stats, err = client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Index.Builds != 1 || stats.Index.CacheHits != 1 {
		t.Fatalf("second session should hit the cache: builds=%d hits=%d", stats.Index.Builds, stats.Index.CacheHits)
	}
	if srv.indexes.len() != 1 {
		t.Fatalf("index cache holds %d entries, want 1", srv.indexes.len())
	}

	// URL parameters override the body.
	httpResp, err := http.Post(client.BaseURL+"/v1/query?index=vptree&candidates=5",
		"application/json", strings.NewReader(`{"clip":"`+rec.Name+`","top_k":4,"index":"exact","candidates":9}`))
	if err != nil {
		t.Fatal(err)
	}
	var round RoundResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&round); err != nil {
		t.Fatal(err)
	}
	httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusCreated {
		t.Fatalf("URL-overridden query got HTTP %d", httpResp.StatusCode)
	}
	if !strings.Contains(round.Engine, "sharded(S=1,C=5)") {
		t.Fatalf("URL override produced engine %q", round.Engine)
	}

	// Malformed overrides fail loudly; the deleted ivf index is one of
	// them, in the URL and in the body, and its error names what remains.
	for _, tc := range []struct{ query, body string }{
		{"?index=bogus", `{"clip":"` + rec.Name + `"}`},
		{"?index=ivf", `{"clip":"` + rec.Name + `"}`},
		{"", `{"clip":"` + rec.Name + `","index":"ivf"}`},
		{"?index=vptree&candidates=-1", `{"clip":"` + rec.Name + `"}`},
		{"?index=vptree&candidates=x", `{"clip":"` + rec.Name + `"}`},
	} {
		bad, err := http.Post(client.BaseURL+"/v1/query"+tc.query, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e ErrorResponse
		derr := json.NewDecoder(bad.Body).Decode(&e)
		bad.Body.Close()
		if bad.StatusCode != http.StatusBadRequest || derr != nil {
			t.Fatalf("%s %s got HTTP %d (decode %v), want 400", tc.query, tc.body, bad.StatusCode, derr)
		}
		if strings.Contains(tc.query+tc.body, "ivf") && !strings.Contains(e.Error, string(index.KindVPTree)) {
			t.Fatalf("%s %s: error %q does not name the remaining index", tc.query, tc.body, e.Error)
		}
	}

	// Ingest of an unrelated clip bumps the catalog generation, but
	// the queried clip's content is untouched: the cached index
	// absorbs the bump as an incremental apply instead of rebuilding.
	rec2 := synthRecord(t, 10, 3, 3, 8)
	rec2.Name = "other"
	if err := catalog.Add(rec2); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Query(ctx, QueryRequest{Clip: rec.Name, TopK: 8, Index: "vptree", Candidates: 10}); err != nil {
		t.Fatal(err)
	}
	stats, err = client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Index.Builds != 1 {
		t.Fatalf("post-ingest session rebuilt: builds=%d, want 1", stats.Index.Builds)
	}
	if stats.Index.IncrementalApplies != 1 {
		t.Fatalf("post-ingest session applies=%d, want 1", stats.Index.IncrementalApplies)
	}
	if stats.Index.ForcedRebuilds != 0 {
		t.Fatalf("post-ingest session forced rebuilds=%d, want 0", stats.Index.ForcedRebuilds)
	}

	// Replacing the queried clip itself (new backing array) forces the
	// rebuild the content change requires.
	if err := catalog.Remove(rec.Name); err != nil {
		t.Fatal(err)
	}
	rec3 := synthRecord(t, 11, 4, 4, 10)
	rec3.Name = rec.Name
	if err := catalog.Add(rec3); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Query(ctx, QueryRequest{Clip: rec.Name, TopK: 8, Index: "vptree", Candidates: 10}); err != nil {
		t.Fatal(err)
	}
	stats, err = client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Index.Builds != 1 || stats.Index.ForcedRebuilds != 1 {
		t.Fatalf("replaced clip: builds=%d forced=%d, want 1/1", stats.Index.Builds, stats.Index.ForcedRebuilds)
	}
	if srv.indexes.len() != 1 {
		t.Fatalf("index cache holds %d entries, want 1", srv.indexes.len())
	}
}

// TestQueryIndexDefaults: a server started with a default index routes
// plain queries through it, and "exact" opts a session out.
func TestQueryIndexDefaults(t *testing.T) {
	rec := synthRecord(t, 12, 4, 4, 12)
	_, client := newTestServer(t, Config{DB: testCatalog(t, rec), DefaultIndex: "vptree", DefaultCandidates: 7})
	ctx := context.Background()

	resp, err := client.Query(ctx, QueryRequest{Clip: rec.Name, TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Engine, "sharded(S=1,C=7)") {
		t.Fatalf("default-index session reports engine %q", resp.Engine)
	}
	resp, err = client.Query(ctx, QueryRequest{Clip: rec.Name, TopK: 5, Index: "exact"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(resp.Engine, "sharded") {
		t.Fatalf("exact override still indexed: %q", resp.Engine)
	}
}

// TestQueryIndexQuantConfig: Config.Quant threads quantization into
// every index the server builds, surfaces training time in stats, and
// rejects unknown kinds at construction.
func TestQueryIndexQuantConfig(t *testing.T) {
	rec := synthRecord(t, 13, 4, 4, 12)
	srv, client := newTestServer(t, Config{DB: testCatalog(t, rec), Quant: "pq"})
	ctx := context.Background()
	if _, err := client.Query(ctx, QueryRequest{Clip: rec.Name, TopK: 5, Index: "vptree", Candidates: 6}); err != nil {
		t.Fatal(err)
	}
	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Index.Builds != 1 {
		t.Fatalf("builds=%d, want 1", stats.Index.Builds)
	}
	if stats.Index.QuantizerTrainMs <= 0 {
		t.Fatalf("quantizer_train_ms=%g, want > 0", stats.Index.QuantizerTrainMs)
	}
	_ = srv
	if _, err := New(Config{DB: testCatalog(t, synthRecord(t, 14, 2, 2, 4)), Quant: "opq"}); err == nil {
		t.Fatal("unknown quant kind accepted")
	}
	// The deleted index kind and quantizer are rejected, not mapped
	// onto what remains, and the error names what remains.
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{DefaultIndex: "ivf"}, string(index.KindVPTree)},
		{Config{Quant: "scalar"}, string(index.QuantPQ)},
	} {
		tc.cfg.DB = testCatalog(t, synthRecord(t, 14, 2, 2, 4))
		if _, err := New(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("New(DefaultIndex %q, Quant %q): err %v, want one naming %q",
				tc.cfg.DefaultIndex, tc.cfg.Quant, err, tc.want)
		}
	}
}

// TestQueryIndexChurnLoad drives the churn load mode end to end: a
// priming session, a deterministic generation bump, concurrent
// catalog writes under live query sessions — with zero dropped
// rounds, at least one incremental apply, and no forced rebuilds
// (churn clips never touch the queried clip's content).
func TestQueryIndexChurnLoad(t *testing.T) {
	rec := synthRecord(t, 15, 5, 5, 20)
	judge, err := JudgeFromRecord(rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, client := newTestServer(t, Config{DB: testCatalog(t, rec)})
	lg := &LoadGen{
		Client: client, Clip: rec.Name, Sessions: 3, Rounds: 3,
		TopK: 8, Index: "vptree", Candidates: 10, Judge: judge, Churn: true,
	}
	rep, err := lg.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.DroppedRounds != 0 {
		t.Fatalf("churn dropped %d rounds: %v", rep.DroppedRounds, rep.Errors)
	}
	if rep.MutationsApplied < 1 {
		t.Fatalf("mutations_applied=%d, want ≥ 1", rep.MutationsApplied)
	}
	if rep.ServerStats == nil {
		t.Fatal("report lacks server stats")
	}
	if rep.ServerStats.Index.IncrementalApplies < 1 {
		t.Fatalf("incremental_applies=%d, want ≥ 1", rep.ServerStats.Index.IncrementalApplies)
	}
	if rep.ServerStats.Index.ForcedRebuilds != 0 {
		t.Fatalf("forced_rebuilds=%d, want 0", rep.ServerStats.Index.ForcedRebuilds)
	}
	if rep.ServerStats.Index.Builds != 1 {
		t.Fatalf("builds=%d, want 1 (churn must reuse the primed index)", rep.ServerStats.Index.Builds)
	}
}

// TestClipEndpoints covers the catalog write API: synthetic ingest,
// name validation, duplicate rejection, scale cap, and removal.
func TestClipEndpoints(t *testing.T) {
	rec := synthRecord(t, 16, 2, 2, 6)
	catalog := testCatalog(t, rec)
	_, client := newTestServer(t, Config{DB: catalog})
	ctx := context.Background()

	created, err := client.CreateClip(ctx, CreateClipRequest{Name: "extra", Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if created.Name != "extra" || created.VSCount != 48 {
		t.Fatalf("created %+v, want 48-VS clip named extra", created)
	}
	if created.Generation == 0 {
		t.Fatal("ingest did not report a generation")
	}
	if catalog.Len() != 2 {
		t.Fatalf("catalog holds %d clips, want 2", catalog.Len())
	}
	// The ingested clip is immediately queryable.
	if _, err := client.Query(ctx, QueryRequest{Clip: "extra", TopK: 5}); err != nil {
		t.Fatal(err)
	}

	if _, err := client.CreateClip(ctx, CreateClipRequest{Name: "extra"}); err == nil {
		t.Fatal("duplicate ingest accepted")
	} else if apiErr := err.(*APIError); apiErr.Status != http.StatusConflict {
		t.Fatalf("duplicate ingest got HTTP %d, want 409", apiErr.Status)
	}
	if _, err := client.CreateClip(ctx, CreateClipRequest{Name: ""}); err == nil {
		t.Fatal("nameless ingest accepted")
	}
	if _, err := client.CreateClip(ctx, CreateClipRequest{Name: "big", Scale: 101}); err == nil {
		t.Fatal("over-cap scale accepted")
	}

	if err := client.DeleteClip(ctx, "extra"); err != nil {
		t.Fatal(err)
	}
	if catalog.Len() != 1 {
		t.Fatalf("catalog holds %d clips after delete, want 1", catalog.Len())
	}
	if err := client.DeleteClip(ctx, "extra"); err == nil {
		t.Fatal("double delete accepted")
	}
}
