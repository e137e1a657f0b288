package core

import (
	"bytes"
	"sync"
	"testing"

	"milvideo/internal/event"
	"milvideo/internal/frame"
	"milvideo/internal/mil"
	"milvideo/internal/retrieval"
	"milvideo/internal/sim"
	"milvideo/internal/videodb"
	"milvideo/internal/window"
)

// smallScene builds a quick tunnel scene for integration tests.
func smallScene(t *testing.T) *sim.Scene {
	t.Helper()
	s, err := sim.Tunnel(sim.TunnelConfig{
		Frames: 400, Seed: 11, SpawnEvery: 90, WallCrash: 2, SuddenStop: 1, FPS: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

var (
	processedOnce sync.Once
	processedClip *Clip
	processedErr  error
)

// processed returns a shared, read-only processed clip; building it
// (render + track over 400 frames) is the expensive part of this
// package's tests.
func processed(t *testing.T) *Clip {
	t.Helper()
	processedOnce.Do(func() {
		processedClip, processedErr = ProcessSceneStream(smallScene(t), DefaultConfig())
	})
	if processedErr != nil {
		t.Fatal(processedErr)
	}
	return processedClip
}

func TestProcessSceneEndToEnd(t *testing.T) {
	c := processed(t)
	if c.Scene == nil || c.Video == nil {
		t.Fatal("missing stages")
	}
	if len(c.Tracks) == 0 {
		t.Fatal("no tracks")
	}
	if len(c.VSs) == 0 {
		t.Fatal("no video sequences")
	}
	if window.CountTS(c.VSs) == 0 {
		t.Fatal("no trajectory sequences")
	}
	q, err := c.TrackingQuality(12)
	if err != nil {
		t.Fatal(err)
	}
	if q.Purity < 0.8 {
		t.Fatalf("tracking purity %v too low: %v", q.Purity, q)
	}
}

func TestProcessErrors(t *testing.T) {
	if _, err := ProcessSceneStream(nil, DefaultConfig()); err == nil {
		t.Fatal("nil scene accepted")
	}
	if _, err := ProcessVideoStream(nil, DefaultConfig()); err == nil {
		t.Fatal("nil video accepted")
	}
	bad := &frame.Video{FPS: 25}
	if _, err := ProcessVideoStream(bad, DefaultConfig()); err == nil {
		t.Fatal("empty video accepted")
	}
}

func TestProcessVideoWithoutGroundTruth(t *testing.T) {
	c := processed(t)
	// Re-ingest the rendered pixels with no scene attached.
	c2, err := ProcessVideoStream(c.Video, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c2.Scene != nil {
		t.Fatal("scene should be nil")
	}
	if _, err := c2.AccidentOracle(); err == nil {
		t.Fatal("oracle without ground truth accepted")
	}
	if _, err := c2.TrackingQuality(10); err == nil {
		t.Fatal("quality without ground truth accepted")
	}
	// Default model fills in when nil.
	cfg := DefaultConfig()
	cfg.Model = nil
	c3, err := ProcessVideoStream(c.Video, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c3.Config.Model == nil {
		t.Fatal("model not defaulted")
	}
}

func TestRetrievalSessionOnProcessedClip(t *testing.T) {
	c := processed(t)
	oracle, err := c.AccidentOracle()
	if err != nil {
		t.Fatal(err)
	}
	sess := c.Session(oracle, 10)
	if n := sess.GroundTruthRelevant(); n == 0 {
		t.Fatal("no relevant VSs in ground truth; scene too easy")
	}
	res, err := sess.Run(retrieval.MILEngine{Opt: mil.DefaultOptions()}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 3 {
		t.Fatalf("rounds: %d", len(res.Rounds))
	}
	// The initial heuristic must find at least one accident: crash
	// signatures dominate the squared-sum score.
	if res.Rounds[0].Accuracy == 0 {
		t.Fatal("initial round found nothing")
	}
}

func TestRecordRoundtripThroughVideoDB(t *testing.T) {
	c := processed(t)
	rec, err := c.Record("tunnel-test")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Meta["source"] != "simulated:tunnel" {
		t.Fatalf("meta: %v", rec.Meta)
	}
	db := videodb.New()
	if err := db.Add(rec); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2 := videodb.New()
	if err := db2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	rec2, err := db2.Clip("tunnel-test")
	if err != nil {
		t.Fatal(err)
	}
	// A session rebuilt from the persisted record reproduces the live
	// session's results exactly.
	live := c.Session(mustOracle(t, c), 10)
	stored, err := SessionFromRecord(rec2, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	lr, err := live.Run(retrieval.MILEngine{Opt: mil.DefaultOptions()}, 2)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := stored.Run(retrieval.MILEngine{Opt: mil.DefaultOptions()}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range lr.Rounds {
		if lr.Rounds[i].Accuracy != sr.Rounds[i].Accuracy {
			t.Fatalf("round %d: %v vs %v", i, lr.Rounds[i].Accuracy, sr.Rounds[i].Accuracy)
		}
	}
	// Record validation errors.
	if _, err := c.Record(""); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := SessionFromRecord(nil, nil, 10); err == nil {
		t.Fatal("nil record accepted")
	}
	rec2.Incidents = nil
	if _, err := SessionFromRecord(rec2, nil, 10); err == nil {
		t.Fatal("record without ground truth accepted")
	}
}

func mustOracle(t *testing.T, c *Clip) retrieval.Oracle {
	t.Helper()
	o, err := c.AccidentOracle()
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestOracleForCustomPredicate(t *testing.T) {
	c := processed(t)
	o, err := c.OracleFor(func(tp sim.IncidentType) bool { return tp == sim.Speeding })
	if err != nil {
		t.Fatal(err)
	}
	// No speeding incidents were configured: nothing is relevant.
	for _, vs := range c.VSs {
		if o.Relevant(vs) {
			t.Fatal("phantom speeding incident")
		}
	}
}

func TestVehicleClassification(t *testing.T) {
	c := processed(t)
	clf, err := c.TrainVehicleClassifier(12, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.ClassifyTracks(clf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no classifications")
	}
	valid := map[string]bool{"car": true, "suv": true, "truck": true}
	for id, cls := range got {
		if !valid[cls] {
			t.Fatalf("track %d: unknown class %q", id, cls)
		}
	}
	if _, err := c.ClassifyTracks(nil); err == nil {
		t.Fatal("nil classifier accepted")
	}
	// Training without ground truth fails.
	c2, err := ProcessVideoStream(c.Video, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.TrainVehicleClassifier(12, 2); err == nil {
		t.Fatal("training without ground truth accepted")
	}
}

func TestTrackShapeFeatures(t *testing.T) {
	c := processed(t)
	found := false
	for _, tr := range c.Tracks {
		feats, ok := TrackShapeFeatures(tr)
		if !ok {
			continue
		}
		found = true
		if len(feats) != 4 {
			t.Fatalf("feature dim: %d", len(feats))
		}
		if feats[0] <= 0 || feats[1] <= 0 || feats[2] <= 0 || feats[3] <= 0 {
			t.Fatalf("non-positive features: %v", feats)
		}
	}
	if !found {
		t.Fatal("no track produced shape features")
	}
}

func TestGeneralityModelSwap(t *testing.T) {
	// The pipeline accepts any event model (paper §4's generality
	// claim): re-run with the U-turn model and check dimensions.
	cfg := DefaultConfig()
	cfg.Model = event.UTurnModel{}
	c, err := ProcessSceneStream(smallScene(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, vs := range c.VSs {
		for _, ts := range vs.TSs {
			if len(ts.Flat()) != 3*2 {
				t.Fatalf("u-turn TS dim: %d", len(ts.Flat()))
			}
		}
	}
}
