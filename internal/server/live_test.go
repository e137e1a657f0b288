package server

import (
	"context"
	"testing"
	"time"

	"milvideo/internal/ingestd"
	"milvideo/internal/videodb"
)

// TestDeleteClipDropsIndexCache is the regression test for cache
// eviction on clip deletion: DELETE /v1/clips/{name} (and the ingest
// daemon's retention path behind the same helper) must drop the
// clip's cache entry with every part index in it, so a later clip of
// the same name never inherits stale candidate structures.
func TestDeleteClipDropsIndexCache(t *testing.T) {
	recA := synthRecord(t, 1, 2, 2, 6)
	recA.Name = "a"
	recB := synthRecord(t, 2, 2, 2, 6)
	recB.Name = "b"
	db := videodb.New()
	for _, rec := range []*videodb.ClipRecord{recA, recB} {
		if err := db.Add(rec); err != nil {
			t.Fatal(err)
		}
	}
	srv, client := newTestServer(t, Config{DB: db})
	ctx := context.Background()
	for _, clip := range []string{"a", "b"} {
		if _, err := client.Query(ctx, QueryRequest{Clip: clip, Index: "vptree", Candidates: 2}); err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.clips.indexCount(); got != 2 {
		t.Fatalf("%d cached indexes after two indexed sessions, want 2", got)
	}
	if err := client.DeleteClip(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if got := srv.clips.indexCount(); got != 1 {
		t.Fatalf("deleting a clip left %d cached indexes, want 1", got)
	}
	// The clip cache holds an entry per indexed clip, sharded or not.
	srv.clips.mu.Lock()
	_, staleA := srv.clips.entries["a"]
	_, keptB := srv.clips.entries["b"]
	srv.clips.mu.Unlock()
	if staleA || !keptB {
		t.Fatalf("after deleting a: memo holds a %v, b %v", staleA, keptB)
	}

	// A new clip under the recycled name is served from a freshly
	// built index over its own content.
	if _, err := client.CreateClip(ctx, CreateClipRequest{Name: "a", Seed: 9}); err != nil {
		t.Fatal(err)
	}
	recreated, err := db.Clip("a")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Query(ctx, QueryRequest{Clip: "a", Index: "vptree", Candidates: 2})
	if err != nil {
		t.Fatal(err)
	}
	if resp.DBSize != len(recreated.VSs) {
		t.Fatalf("recycled clip ranked %d bags, its record has %d", resp.DBSize, len(recreated.VSs))
	}
}

// TestDeleteClipDropsShardedCache is the sharded flavor: one deletion
// removes the clip's entry: its per-shard indexes, partition and
// stored heuristic order.
func TestDeleteClipDropsShardedCache(t *testing.T) {
	recA := synthRecord(t, 3, 2, 2, 10)
	recA.Name = "a"
	db := testCatalog(t, recA)
	srv, client := newTestServer(t, Config{DB: db, Shards: 3})
	ctx := context.Background()
	if _, err := client.Query(ctx, QueryRequest{Clip: "a", Index: "vptree", Candidates: 2}); err != nil {
		t.Fatal(err)
	}
	if got := srv.clips.indexCount(); got != 3 {
		t.Fatalf("%d cached indexes for a 3-shard session, want 3", got)
	}
	// A pushed delta reaches every per-shard index through the
	// re-partition of the clip's current windows.
	out, err := srv.ApplyLive("a", recA.VSs, db.Generation())
	if err != nil {
		t.Fatal(err)
	}
	if out.Entries != 3 {
		t.Fatalf("ApplyLive reached %d sharded entries, want 3", out.Entries)
	}
	if err := client.DeleteClip(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if got := srv.clips.indexCount(); got != 0 {
		t.Fatalf("deleting the clip left %d per-shard indexes", got)
	}
	srv.clips.mu.Lock()
	_, stale := srv.clips.entries["a"]
	srv.clips.mu.Unlock()
	if stale {
		t.Fatal("deleting the clip left its memo entry")
	}
}

// TestLiveSessionTracksIngest runs the full always-on loop in one
// process: an ingest daemon commits and evicts segments while a live
// indexed session keeps serving feedback rounds against the feed clip.
// Every round must serve (stale-index races are absorbed by retry,
// never surfaced), and after the source drains the session's view
// converges exactly to the surviving catalog.
func TestLiveSessionTracksIngest(t *testing.T) {
	db := videodb.New()
	d, err := ingestd.New(ingestd.Config{
		DB:             db,
		Source:         &ingestd.SimSource{Frames: 50, Seed: 5, Limit: 8},
		Workers:        2,
		RetainSegments: 4,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, client := newTestServer(t, Config{DB: db, Ingest: d})
	if err := d.Start(context.Background(), srv); err != nil {
		t.Fatal(err)
	}
	defer d.Stop()

	// Wait for the first commit to publish the feed clip.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := db.Clip(d.FeedClip()); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("feed clip never became queryable")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// C >= N: full delegation, so every live round ranks exactly.
	ctx := context.Background()
	resp, err := client.Query(ctx, QueryRequest{Clip: d.FeedClip(), Index: "vptree", Candidates: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if resp.DBSize == 0 || len(resp.TopK) == 0 {
		t.Fatalf("live round 0 served an empty feed: %+v", resp)
	}

	// Feedback rounds racing the daemon's remaining commits and
	// evictions. Zero dropped rounds is the contract.
	last := resp
	for i := 0; i < 10; i++ {
		r, err := client.Feedback(ctx, resp.Session, []FeedbackLabel{{VS: last.TopK[0].VS, Relevant: true}})
		if err != nil {
			t.Fatalf("live round %d dropped: %v", i+1, err)
		}
		if r.DBSize == 0 {
			t.Fatalf("live round %d ranked an empty feed", i+1)
		}
		last = r
		time.Sleep(50 * time.Millisecond)
	}

	d.Wait()
	// With the source drained the next round's view is exactly the
	// surviving catalog.
	r, err := client.Feedback(ctx, resp.Session, []FeedbackLabel{{VS: last.TopK[0].VS, Relevant: true}})
	if err != nil {
		t.Fatal(err)
	}
	feed, err := db.Clip(d.FeedClip())
	if err != nil {
		t.Fatal(err)
	}
	if r.DBSize != len(feed.VSs) {
		t.Fatalf("drained round ranked %d bags, feed has %d", r.DBSize, len(feed.VSs))
	}

	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ingest == nil || st.Live == nil {
		t.Fatal("stats omit the ingest daemon")
	}
	if st.Ingest.State != "drained" || st.Ingest.Committed != 8 {
		t.Fatalf("ingest stats: %+v", st.Ingest)
	}
	if st.Live.Rounds < 12 {
		t.Fatalf("live rounds %d, want >= 12", st.Live.Rounds)
	}

	// The push side, deterministically: applying the current feed to
	// the resident index is absorbed by at least one entry, and
	// retention-style drops clear it.
	out, err := srv.ApplyLive(d.FeedClip(), feed.VSs, db.Generation())
	if err != nil {
		t.Fatal(err)
	}
	if out.Entries == 0 {
		t.Fatal("ApplyLive reached no resident index entry")
	}
	if n := srv.DropClips([]string{d.FeedClip()}); n == 0 {
		t.Fatal("DropClips removed nothing")
	}
	if got := srv.clips.indexCount(); got != 0 {
		t.Fatalf("%d cached indexes after dropping the feed", got)
	}
}

// TestLoadGenLive runs the generator's live mode against a real
// daemon-backed server: it must wait for the feed to appear, loop
// sessions until the duration elapses with its stand-in judge, and
// lose nothing.
func TestLoadGenLive(t *testing.T) {
	db := videodb.New()
	d, err := ingestd.New(ingestd.Config{
		DB:             db,
		Source:         &ingestd.SimSource{Frames: 50, Seed: 9},
		RetainSegments: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, client := newTestServer(t, Config{DB: db, Ingest: d})
	if err := d.Start(context.Background(), srv); err != nil {
		t.Fatal(err)
	}
	defer d.Stop()

	lg := &LoadGen{
		Client:     client,
		Clip:       d.FeedClip(),
		Sessions:   2,
		Rounds:     3,
		TopK:       4,
		Index:      "vptree",
		Candidates: 1 << 20,
		Live:       true,
		Duration:   1500 * time.Millisecond,
	}
	rep, err := lg.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.DroppedRounds != 0 || rep.EmptyRankings != 0 {
		t.Fatalf("live load lost rounds: %+v", rep)
	}
	if rep.RoundsServed < 2*3 {
		t.Fatalf("live load served %d rounds in %s, want >= 6", rep.RoundsServed, lg.Duration)
	}
	if rep.ServerStats == nil || rep.ServerStats.Ingest == nil {
		t.Fatal("live report lacks ingest stats")
	}
	if rep.ServerStats.Ingest.Committed == 0 {
		t.Fatal("daemon committed nothing during the live run")
	}
}

// TestLoadGenLiveRequiresDaemon pins the guard: live load against a
// server without an ingest daemon fails up front, not after the
// duration.
func TestLoadGenLiveRequiresDaemon(t *testing.T) {
	rec := synthRecord(t, 8, 2, 2, 6)
	_, client := newTestServer(t, Config{DB: testCatalog(t, rec)})
	lg := &LoadGen{
		Client:   client,
		Clip:     rec.Name,
		Live:     true,
		LiveWait: 100 * time.Millisecond,
		Duration: 100 * time.Millisecond,
	}
	if _, err := lg.Run(context.Background()); err == nil {
		t.Fatal("live load without an ingest daemon accepted")
	}
}

// TestLiveRequestValidation pins the live-session request surface:
// seed anchors are rejected (they can be evicted mid-session), and
// plain clips can opt in to live tracking explicitly.
func TestLiveRequestValidation(t *testing.T) {
	rec := synthRecord(t, 7, 2, 2, 6)
	_, client := newTestServer(t, Config{DB: testCatalog(t, rec)})
	ctx := context.Background()
	vs := rec.VSs[0].Index
	_, err := client.Query(ctx, QueryRequest{Clip: rec.Name, Live: true, ExampleVS: &vs})
	wantStatus(t, err, 400)

	resp, err := client.Query(ctx, QueryRequest{Clip: rec.Name, Live: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.DBSize != len(rec.VSs) {
		t.Fatalf("live session over a static clip ranked %d bags, want %d", resp.DBSize, len(rec.VSs))
	}
}
