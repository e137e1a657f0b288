// The end-to-end chaos conformance suite: seeded fault schedules
// replayed across ingest, persistence and the query service, with the
// testkit invariants asserted at every boundary. Run under -race by
// scripts/ci.sh's chaos leg; every test here is deterministic — the
// same seeds replay the same faults.
package testkit_test

import (
	"bytes"
	"context"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"milvideo/internal/core"
	"milvideo/internal/faults"
	"milvideo/internal/server"
	"milvideo/internal/sim"
	"milvideo/internal/testkit"
	"milvideo/internal/videodb"
)

// raceFrames shrinks clip lengths under the race detector, where each
// pipeline run is an order of magnitude slower.
func chaosFrames() int {
	if raceDetectorOn {
		return 80
	}
	return 120
}

// TestChaosZeroRateIdentity is the suite's inertness gate: with every
// fault rate at zero, ingest output is byte-identical to a pipeline
// with no injector at all, and the query service returns identical
// rankings. Chaos instrumentation must be provably free when unused.
func TestChaosZeroRateIdentity(t *testing.T) {
	scene, err := testkit.TunnelScene(7, chaosFrames())
	if err != nil {
		t.Fatal(err)
	}
	clean, err := core.ProcessSceneStream(scene, testkit.PipelineConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	zero, err := core.ProcessSceneStream(scene, testkit.PipelineConfig(faults.New(faults.Config{Seed: 99})))
	if err != nil {
		t.Fatal(err)
	}
	if zero.Degraded.Any() {
		t.Fatalf("zero-rate injector reported degradation: %v", zero.Degraded)
	}
	a, err := testkit.Signature(clean.Tracks, clean.VSs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := testkit.Signature(zero.Tracks, zero.VSs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("zero-rate injector changed ingest output")
	}

	// Server side: a zero-rate injector must not perturb rankings.
	rankings := func(inj *faults.Injector) ([]int, []int) {
		rec, err := clean.Record("chaos")
		if err != nil {
			t.Fatal(err)
		}
		db := videodb.New()
		if err := db.Add(rec); err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(server.Config{DB: db, Faults: inj})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		cl := serverClient(t, srv)
		round, err := cl.Query(context.Background(), server.QueryRequest{Clip: "chaos", TopK: 5})
		if err != nil {
			t.Fatal(err)
		}
		if err := testkit.CheckRankingPermutation(round.Ranking, rec.VSs); err != nil {
			t.Fatal(err)
		}
		next, err := cl.Feedback(context.Background(), round.Session, []server.FeedbackLabel{
			{VS: round.TopK[0].VS, Relevant: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		return round.Ranking, next.Ranking
	}
	c0, c1 := rankings(nil)
	z0, z1 := rankings(faults.New(faults.Config{Seed: 4242}))
	for i := range c0 {
		if c0[i] != z0[i] {
			t.Fatalf("round 0 pos %d: zero-rate injector changed the ranking", i)
		}
	}
	for i := range c1 {
		if c1[i] != z1[i] {
			t.Fatalf("round 1 pos %d: zero-rate injector changed the ranking", i)
		}
	}
}

// TestChaosIngestConformance replays a seeded fault schedule through
// ingest twice: both runs must degrade identically (determinism) and
// the degraded output must still satisfy every structural invariant.
func TestChaosIngestConformance(t *testing.T) {
	run := func() *core.Clip {
		scene, err := testkit.TunnelScene(11, chaosFrames())
		if err != nil {
			t.Fatal(err)
		}
		cfg := testkit.PipelineConfig(faults.New(testkit.FaultSchedule(21)))
		clip, err := core.ProcessSceneStream(scene, cfg)
		if err != nil {
			t.Fatalf("faulted ingest failed: %v", err)
		}
		if !clip.Degraded.Any() {
			t.Fatal("fault schedule produced no degradation")
		}
		if err := testkit.CheckTrackLifecycle(clip.Tracks, clip.Video.Len(), cfg.Track); err != nil {
			t.Fatal(err)
		}
		if err := testkit.CheckBagConsistency(clip.VSs, clip.Video.Len(), cfg.Window); err != nil {
			t.Fatal(err)
		}
		return clip
	}
	a, b := run(), run()
	if a.Degraded != b.Degraded {
		t.Fatalf("replayed schedule degraded differently: %v vs %v", a.Degraded, b.Degraded)
	}
	sa, err := testkit.Signature(a.Tracks, a.VSs)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := testkit.Signature(b.Tracks, b.VSs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sa, sb) {
		t.Fatal("replayed schedule produced different output")
	}
}

// TestChaosPersistenceConformance ingests two degraded clips into a
// catalog, round-trips it through disk, and then damages the file:
// the strict loader must refuse it and the recovering loader must
// salvage only intact, valid records.
func TestChaosPersistenceConformance(t *testing.T) {
	tun, err := testkit.TunnelScene(3, chaosFrames())
	if err != nil {
		t.Fatal(err)
	}
	xing, err := testkit.IntersectionScene(5, chaosFrames())
	if err != nil {
		t.Fatal(err)
	}
	db := videodb.New()
	cfg := testkit.PipelineConfig(faults.New(testkit.FaultSchedule(33)))
	for _, job := range []struct {
		name  string
		scene *sim.Scene
	}{{"tunnel", tun}, {"xing", xing}} {
		clip, err := core.ProcessSceneStream(job.scene, cfg)
		if err != nil {
			t.Fatalf("ingest %q: %v", job.name, err)
		}
		rec, err := clip.Record(job.name)
		if err != nil {
			t.Fatalf("ingest %q: %v", job.name, err)
		}
		if err := db.Add(rec); err != nil {
			t.Fatalf("ingest %q: %v", job.name, err)
		}
	}
	if err := testkit.CheckDBRoundTrip(db); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "catalog.gob")
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	re, err := videodb.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 2 {
		t.Fatalf("reloaded %d clips, want 2", re.Len())
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := faults.FlipBits(77, 1, data, 5)
	bad := filepath.Join(t.TempDir(), "damaged.gob")
	if err := os.WriteFile(bad, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := videodb.LoadFile(bad); err == nil {
		t.Fatal("strict load accepted a bit-flipped catalog")
	}
	rec, rep, err := videodb.LoadFileRecovering(bad)
	if err != nil {
		// Container-level damage: nothing salvageable, but the failure
		// was clean and typed.
		return
	}
	if rep.Loaded != rec.Len() {
		t.Fatalf("report loaded=%d but catalog holds %d", rep.Loaded, rec.Len())
	}
	for _, n := range rec.Names() {
		c, err := rec.Clip(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("recovered record %q invalid: %v", n, err)
		}
	}
}

// TestChaosServiceConformance drives the query service under injected
// re-rank faults: refused rounds are typed 503s with Retry-After,
// served rounds return legal permutations, and the degradation
// counters account for every injection.
func TestChaosServiceConformance(t *testing.T) {
	scene, err := testkit.TunnelScene(7, chaosFrames())
	if err != nil {
		t.Fatal(err)
	}
	clip, err := core.ProcessSceneStream(scene, testkit.PipelineConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := clip.Record("chaos")
	if err != nil {
		t.Fatal(err)
	}
	db := videodb.New()
	if err := db.Add(rec); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		DB:     db,
		Faults: faults.New(faults.Config{Seed: 13, FailRerank: 0.4}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := serverClient(t, srv)

	served, refused := 0, 0
	for i := 0; i < 10; i++ {
		round, err := cl.Query(context.Background(), server.QueryRequest{Clip: "chaos"})
		if err != nil {
			var apiErr *server.APIError
			if !asAPIError(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
				t.Fatalf("round %d: refused with %v, want typed 503", i, err)
			}
			refused++
			continue
		}
		served++
		if err := testkit.CheckRankingPermutation(round.Ranking, rec.VSs); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	if served == 0 || refused == 0 {
		t.Fatalf("rate 0.4 over 10 rounds: served=%d refused=%d — schedule not mixing", served, refused)
	}
	st := srv.Stats()
	if st.Degraded.InjectedFailures != int64(refused) {
		t.Fatalf("stats count %d injected failures, observed %d", st.Degraded.InjectedFailures, refused)
	}
	// RoundsServed counts only successful rounds; refused queries never
	// increment it.
	if st.RoundsServed != int64(served) {
		t.Fatalf("stats count %d rounds served, observed %d", st.RoundsServed, served)
	}
}
