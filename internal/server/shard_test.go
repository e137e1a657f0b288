package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"milvideo/internal/shard"
	"milvideo/internal/videodb"
)

// runJudgedSession drives a rounds-long feedback session and returns
// the final full ranking — the fixture both identity tests compare
// across server configurations.
func runJudgedSession(t *testing.T, client *Client, clip string, judge Judge, rounds int) ([]int, string) {
	t.Helper()
	ctx := context.Background()
	resp, err := client.Query(ctx, QueryRequest{Clip: clip, TopK: 10})
	if err != nil {
		t.Fatal(err)
	}
	engine := resp.Engine
	for r := 1; r < rounds; r++ {
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
	if err := client.Delete(ctx, resp.Session); err != nil {
		t.Fatal(err)
	}
	return final.Ranking, engine
}

// TestInProcessShardedIdentity: a server partitioned across 3
// in-process shards with C = N serves rankings identical to the
// unsharded (S = 1) server — round for round, over a full judged
// session — and the round counters account for the rounds.
func TestInProcessShardedIdentity(t *testing.T) {
	rec := synthRecord(t, 21, 6, 6, 36)
	judge, err := JudgeFromRecord(rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := len(rec.VSs)
	base := Config{DefaultIndex: "vptree", DefaultCandidates: n}

	plainCfg := base
	plainCfg.DB = testCatalog(t, rec)
	_, plainClient := newTestServer(t, plainCfg)
	wantRank, wantEngine := runJudgedSession(t, plainClient, rec.Name, judge, 4)
	if !strings.Contains(wantEngine, "sharded(S=1") {
		t.Fatalf("baseline engine %q is not the unsharded pruned engine", wantEngine)
	}

	shardCfg := base
	shardCfg.DB = testCatalog(t, rec)
	shardCfg.Shards = 3
	srv, client := newTestServer(t, shardCfg)
	gotRank, gotEngine := runJudgedSession(t, client, rec.Name, judge, 4)
	if !strings.Contains(gotEngine, "sharded(S=3") {
		t.Fatalf("sharded server reports engine %q", gotEngine)
	}
	if !reflect.DeepEqual(gotRank, wantRank) {
		t.Fatalf("sharded C=N ranking diverges from unsharded\ngot  %v\nwant %v", gotRank, wantRank)
	}

	stats, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Shard == nil || stats.Shard.Mode != "inprocess" || stats.Shard.Shards != 3 {
		t.Fatalf("shard stats missing or wrong: %+v", stats.Shard)
	}
	// Rounds 1–3 carry positive labels and scatter; round 0 is full.
	if stats.Index.PrunedRounds < 1 || stats.Index.FullRounds < 1 {
		t.Fatalf("pruned/full rounds: %+v", stats.Index)
	}
	if stats.Shard.PartialRounds != 0 || stats.Shard.AllFailedRounds != 0 {
		t.Fatalf("healthy run degraded: %+v", stats.Shard)
	}
	// Per-(clip, shard, kind) index caching: 3 partition indexes, no
	// whole-clip one.
	if srv.indexes.len() != 3 {
		t.Fatalf("index cache holds %d entries, want 3", srv.indexes.len())
	}
	if stats.Index.Builds != 3 {
		t.Fatalf("builds=%d, want 3 per-shard builds", stats.Index.Builds)
	}
}

// newWorker builds one shard worker over its partition of rec.
func newWorker(t *testing.T, rec *videodb.ClipRecord, i, n int) (*Server, *Client) {
	t.Helper()
	ring := shard.NewRing(n)
	part := shard.PartitionRecord(ring, rec, i)
	db := videodb.New()
	if part != nil {
		if err := db.Add(part); err != nil {
			t.Fatal(err)
		}
	}
	return newTestServer(t, Config{DB: db, PartitionIndex: i, PartitionCount: n})
}

// TestScatterEndpoint covers the worker wire surface: a served probe,
// a full-budget request with an empty probe list (what a C >= N round
// sends), the empty answer for a clip the worker holds nothing of,
// and the 400s for malformed bodies.
func TestScatterEndpoint(t *testing.T) {
	rec := synthRecord(t, 22, 4, 4, 16)
	_, client := newWorker(t, rec, 0, 2)
	ctx := context.Background()

	probe := rec.VSs[0].TSs[0].Flat()
	resp, err := client.Scatter(ctx, ScatterRequest{Clip: rec.Name, Kind: "vptree", Candidates: 5, Probes: [][]float64{probe}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Bags == 0 || len(resp.Hits) == 0 || resp.Probes != 1 {
		t.Fatalf("scatter answer %+v", resp)
	}
	for _, h := range resp.Hits {
		if h.VS < 0 {
			t.Fatalf("hit carries bad VS index: %+v", h)
		}
	}

	// No probes and a budget covering the partition: every bag comes
	// back by completion, and no distance is measured.
	resp, err = client.Scatter(ctx, ScatterRequest{Clip: rec.Name, Kind: "vptree", Candidates: len(rec.VSs), Probes: [][]float64{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Hits) != resp.Bags || resp.Probes != 0 || resp.DistEvals != 0 {
		t.Fatalf("full-budget scatter without probes answered %d hits for %d bags, probes=%d dist_evals=%d",
			len(resp.Hits), resp.Bags, resp.Probes, resp.DistEvals)
	}
	for _, h := range resp.Hits {
		if h.Dist != -1 {
			t.Fatalf("probe-less hit %+v is not a completion hit", h)
		}
	}

	// A clip this worker owns nothing of answers empty, not 404 — the
	// coordinator's merge treats it as zero candidates.
	resp, err = client.Scatter(ctx, ScatterRequest{Clip: "elsewhere", Kind: "vptree", Candidates: 5, Probes: [][]float64{probe}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Hits) != 0 || resp.Bags != 0 {
		t.Fatalf("unknown clip answered %+v", resp)
	}

	_, err = client.Scatter(ctx, ScatterRequest{Clip: rec.Name, Kind: "lsh", Candidates: 5})
	wantStatus(t, err, http.StatusBadRequest)
	_, err = client.Scatter(ctx, ScatterRequest{Clip: rec.Name, Kind: "vptree", Candidates: 0})
	wantStatus(t, err, http.StatusBadRequest)
	_, err = client.Scatter(ctx, ScatterRequest{Kind: "vptree", Candidates: 5})
	wantStatus(t, err, http.StatusBadRequest)

	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Shard == nil || stats.Shard.Mode != "worker" {
		t.Fatalf("worker shard stats: %+v", stats.Shard)
	}
	if stats.Shard.ScatterServed != 3 {
		t.Fatalf("scatter_served=%d, want 3", stats.Shard.ScatterServed)
	}
}

// TestClusterScatterGather runs the full N-process topology in
// miniature: 3 shard workers each holding one partition, a
// coordinator scattering over HTTP — identity with the unsharded
// ranking at C = N, aggregated stats, write forwarding, and partial
// degradation when a worker dies.
func TestClusterScatterGather(t *testing.T) {
	rec := synthRecord(t, 23, 6, 6, 36)
	judge, err := JudgeFromRecord(rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := len(rec.VSs)
	const workers = 3

	var workerClients []*Client
	var urls []string
	for i := 0; i < workers; i++ {
		_, wc := newWorker(t, rec, i, workers)
		workerClients = append(workerClients, wc)
		urls = append(urls, wc.BaseURL)
	}

	plainCfg := Config{DB: testCatalog(t, rec), DefaultIndex: "vptree", DefaultCandidates: n}
	_, plainClient := newTestServer(t, plainCfg)
	wantRank, _ := runJudgedSession(t, plainClient, rec.Name, judge, 4)

	coordCfg := Config{
		DB: testCatalog(t, rec), DefaultIndex: "vptree", DefaultCandidates: n,
		ShardURLs: urls,
	}
	_, coord := newTestServer(t, coordCfg)
	gotRank, engine := runJudgedSession(t, coord, rec.Name, judge, 4)
	if !strings.Contains(engine, "sharded(S=3") {
		t.Fatalf("coordinator reports engine %q", engine)
	}
	if !reflect.DeepEqual(gotRank, wantRank) {
		t.Fatalf("cluster C=N ranking diverges from unsharded\ngot  %v\nwant %v", gotRank, wantRank)
	}

	ctx := context.Background()
	stats, err := coord.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Shard == nil || stats.Shard.Mode != "coordinator" || stats.Index.PrunedRounds < 1 {
		t.Fatalf("coordinator shard stats: %+v, index stats: %+v", stats.Shard, stats.Index)
	}
	// Every round ran at C = N, so the workers searched nothing.
	if stats.Index.Probes != 0 || stats.Index.DistEvals != 0 {
		t.Fatalf("C=N rounds spent probes=%d dist_evals=%d, want 0/0", stats.Index.Probes, stats.Index.DistEvals)
	}
	if stats.Cluster == nil || stats.Cluster.Shards != workers || stats.Cluster.Reachable != workers {
		t.Fatalf("cluster stats: %+v", stats.Cluster)
	}
	if stats.Cluster.ScatterServed < int64(workers) {
		t.Fatalf("workers served %d scatters, want >= %d", stats.Cluster.ScatterServed, workers)
	}
	if stats.Cluster.Index.Builds < 1 {
		t.Fatalf("summed worker builds = %d, want >= 1", stats.Cluster.Index.Builds)
	}
	if len(stats.Cluster.PerShard) != workers {
		t.Fatalf("per-shard breakdown has %d entries", len(stats.Cluster.PerShard))
	}
	for i, ns := range stats.Cluster.PerShard {
		if !ns.Reachable || ns.URL != urls[i] {
			t.Fatalf("per-shard %d: %+v", i, ns)
		}
		if ns.Scatter.Count < 1 {
			t.Fatalf("per-shard %d saw no scatter latency samples", i)
		}
	}

	// Catalog writes forward to every worker's partition: the workers'
	// scatter answers for the new clip must jointly cover its bags.
	created, err := coord.CreateClip(ctx, CreateClipRequest{Name: "extra", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	partBags := func(clip string) int {
		total := 0
		for _, wc := range workerClients {
			resp, err := wc.Scatter(ctx, ScatterRequest{
				Clip: clip, Kind: "vptree", Candidates: 1,
				Probes: [][]float64{rec.VSs[0].TSs[0].Flat()},
			})
			if err != nil {
				t.Fatal(err)
			}
			total += resp.Bags
		}
		return total
	}
	if got := partBags("extra"); got != created.VSCount {
		t.Fatalf("worker partitions hold %d of the new clip's %d VSs", got, created.VSCount)
	}
	if _, err := coord.Query(ctx, QueryRequest{Clip: "extra", TopK: 5}); err != nil {
		t.Fatal(err)
	}
	if err := coord.DeleteClip(ctx, "extra"); err != nil {
		t.Fatal(err)
	}
	if got := partBags("extra"); got != 0 {
		t.Fatalf("delete did not forward: workers still hold %d VSs", got)
	}
}

// TestClusterDegradesOnDeadWorker: killing one worker degrades
// scattered rounds to partial results — queries keep answering, the
// loss lands in the counters, and stats report the worker down.
func TestClusterDegradesOnDeadWorker(t *testing.T) {
	rec := synthRecord(t, 24, 5, 5, 20)
	judge, err := JudgeFromRecord(rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := len(rec.VSs)
	const workers = 3

	// Worker 1 runs on a server the test kills midway; the others stay
	// healthy.
	var urls []string
	var victim *httptest.Server
	ring := shard.NewRing(workers)
	for i := 0; i < workers; i++ {
		if i != 1 {
			_, wc := newWorker(t, rec, i, workers)
			urls = append(urls, wc.BaseURL)
			continue
		}
		part := shard.PartitionRecord(ring, rec, i)
		db := videodb.New()
		if part != nil {
			if err := db.Add(part); err != nil {
				t.Fatal(err)
			}
		}
		w1, err := New(Config{DB: db, PartitionIndex: i, PartitionCount: workers})
		if err != nil {
			t.Fatal(err)
		}
		victim = httptest.NewServer(w1.Handler())
		t.Cleanup(func() {
			victim.Close()
			w1.Close()
		})
		urls = append(urls, victim.URL)
	}

	_, coord := newTestServer(t, Config{
		DB: testCatalog(t, rec), DefaultIndex: "vptree", DefaultCandidates: n,
		ShardURLs: urls,
	})
	// Healthy first: the session ranks fine.
	rank, _ := runJudgedSession(t, coord, rec.Name, judge, 2)
	if len(rank) != n {
		t.Fatalf("healthy ranking has %d entries, want %d", len(rank), n)
	}

	victim.Close()
	rank, _ = runJudgedSession(t, coord, rec.Name, judge, 3)
	if len(rank) != n {
		t.Fatalf("degraded ranking has %d entries, want %d", len(rank), n)
	}
	stats, err := coord.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Shard.PartialRounds < 1 || stats.Shard.ShardErrors < 1 {
		t.Fatalf("dead worker left no degradation trace: %+v", stats.Shard)
	}
	if stats.Cluster.Reachable != workers-1 {
		t.Fatalf("reachable=%d, want %d", stats.Cluster.Reachable, workers-1)
	}
	if stats.Cluster.PerShard[1].Reachable {
		t.Fatal("dead worker still reported reachable")
	}
	if stats.Cluster.PerShard[1].Errors < 1 {
		t.Fatalf("dead worker's error counter empty: %+v", stats.Cluster.PerShard[1])
	}
}

// TestLoadGenShardBreakdown: loadgen pointed at a coordinator with
// ShardURLs set snapshots every worker's stats into the report.
func TestLoadGenShardBreakdown(t *testing.T) {
	rec := synthRecord(t, 25, 4, 4, 16)
	judge, err := JudgeFromRecord(rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 2
	var urls []string
	for i := 0; i < workers; i++ {
		_, wc := newWorker(t, rec, i, workers)
		urls = append(urls, wc.BaseURL)
	}
	_, coord := newTestServer(t, Config{
		DB: testCatalog(t, rec), DefaultIndex: "vptree", DefaultCandidates: 12,
		ShardURLs: urls,
	})
	lg := &LoadGen{
		Client: coord, Clip: rec.Name, Sessions: 2, Rounds: 3,
		TopK: 8, Judge: judge, ShardURLs: urls,
	}
	rep, err := lg.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.DroppedRounds != 0 {
		t.Fatalf("dropped %d rounds: %v", rep.DroppedRounds, rep.Errors)
	}
	if len(rep.ShardStats) != workers {
		t.Fatalf("report carries %d shard stats, want %d", len(rep.ShardStats), workers)
	}
	served := int64(0)
	for i, ws := range rep.ShardStats {
		if ws == nil {
			t.Fatalf("worker %d stats missing", i)
		}
		if ws.Shard != nil {
			served += ws.Shard.ScatterServed
		}
	}
	if served < 1 {
		t.Fatal("no worker reported served scatters")
	}
	if rep.ServerStats == nil || rep.ServerStats.Shard == nil || rep.ServerStats.Index.PrunedRounds < 1 {
		t.Fatal("coordinator report lacks scatter telemetry")
	}
}
