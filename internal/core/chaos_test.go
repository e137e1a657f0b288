package core

import (
	"bytes"
	"testing"
	"time"

	"milvideo/internal/faults"
	"milvideo/internal/render"
	"milvideo/internal/sim"
	"milvideo/internal/videodb"
)

// chaosScene is a short clip for fault-injection tests: long enough
// to confirm tracks and extract windows, short enough to process in
// well under a second.
func chaosScene(t *testing.T) *sim.Scene {
	t.Helper()
	s, err := sim.Tunnel(sim.TunnelConfig{
		Frames: 120, Seed: 7, SpawnEvery: 50, WallCrash: 1, FPS: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// chaosConfig returns a pipeline config with a tiny retry backoff so
// exhausted-retry tests stay fast.
func chaosConfig(inj *faults.Injector) Config {
	cfg := DefaultConfig()
	cfg.Faults = inj
	cfg.RetryBackoff = 10 * time.Microsecond
	return cfg
}

// TestZeroRateInjectorIdentity is the inertness guarantee: a
// zero-rate injector produces output byte-identical to no injector at
// all, on both the static-background and adaptive streaming paths.
func TestZeroRateInjectorIdentity(t *testing.T) {
	scene := chaosScene(t)
	for _, adaptive := range []bool{false, true} {
		clean := DefaultConfig()
		clean.Segment.Adaptive = adaptive
		zero := chaosConfig(faults.New(faults.Config{Seed: 999}))
		zero.Segment.Adaptive = adaptive

		ref, err := ProcessSceneStream(scene, clean)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ProcessSceneStream(scene, zero)
		if err != nil {
			t.Fatal(err)
		}
		if got.Degraded.Any() {
			t.Fatalf("adaptive=%v: zero-rate injector reported degradation %v", adaptive, got.Degraded)
		}
		if !bytes.Equal(clipSignature(t, ref.Tracks, ref.VSs), clipSignature(t, got.Tracks, got.VSs)) {
			t.Fatalf("adaptive=%v: zero-rate injector changed the output", adaptive)
		}
	}
}

// TestFaultedIngestDegradesGracefully: under drops, corruption,
// latency spikes and transient errors the pipeline still succeeds,
// reports what it absorbed, and produces a structurally legal clip.
func TestFaultedIngestDegradesGracefully(t *testing.T) {
	scene := chaosScene(t)
	inj := faults.New(faults.Config{
		Seed:          3,
		FrameDrop:     0.08,
		SaltPepper:    0.1,
		Blackout:      0.03,
		SegTransient:  0.15,
		StageDelay:    0.05,
		StageDelayDur: 50 * time.Microsecond,
	})
	clip, err := ProcessSceneStream(scene, chaosConfig(inj))
	if err != nil {
		t.Fatalf("faulted ingest failed outright: %v", err)
	}
	d := clip.Degraded
	if !d.Any() {
		t.Fatal("no degradation reported under non-zero rates")
	}
	if d.FramesDropped == 0 || d.FramesCorrupted == 0 {
		t.Fatalf("expected drops and corruption in %v", d)
	}
	if d.TransientErrors == 0 || d.Retries == 0 {
		t.Fatalf("expected transient errors and retries in %v", d)
	}
	if d.RetriesExhausted > d.FramesDropped {
		t.Fatalf("exhausted retries %d exceed dropped frames %d", d.RetriesExhausted, d.FramesDropped)
	}
	if len(clip.VSs) == 0 {
		t.Fatal("no VSs extracted from degraded clip")
	}
	// Degraded output must still be recordable — this is what keeps a
	// batch alive.
	if _, err := clip.Record("degraded"); err != nil {
		t.Fatalf("degraded clip not recordable: %v", err)
	}
}

// TestFaultedIngestDeterministic: the same seed replays the identical
// fault schedule — output signature and degradation report both match
// across runs and across stream-config schedules.
func TestFaultedIngestDeterministic(t *testing.T) {
	scene := chaosScene(t)
	v, err := render.Video(scene, DefaultConfig().Render)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(stream StreamConfig) (*Clip, error) {
		cfg := chaosConfig(faults.New(faults.Config{
			Seed: 17, FrameDrop: 0.1, SaltPepper: 0.1, SegTransient: 0.2,
		}))
		cfg.Stream = stream
		return ProcessVideoStream(v, cfg)
	}
	a, err := mk(StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []StreamConfig{{}, {SegWorkers: 1}, {SegWorkers: 3}} {
		b, err := mk(sc)
		if err != nil {
			t.Fatal(err)
		}
		if a.Degraded != b.Degraded {
			t.Fatalf("stream %+v: degradation differs: %v vs %v", sc, a.Degraded, b.Degraded)
		}
		if !bytes.Equal(clipSignature(t, a.Tracks, a.VSs), clipSignature(t, b.Tracks, b.VSs)) {
			t.Fatalf("stream %+v: faulted output not schedule-independent", sc)
		}
	}
}

// TestRetriesExhaustedDegradeToDrops: a permanent transient outage
// (rate 1) consumes the whole retry budget on every frame and
// degrades every frame to an empty detection set instead of failing.
func TestRetriesExhaustedDegradeToDrops(t *testing.T) {
	scene := chaosScene(t)
	cfg := chaosConfig(faults.New(faults.Config{Seed: 5, SegTransient: 1}))
	cfg.StageRetries = 1
	clip, err := ProcessSceneStream(scene, cfg)
	if err != nil {
		t.Fatalf("total outage should degrade, not fail: %v", err)
	}
	n := len(scene.Frames)
	d := clip.Degraded
	if d.RetriesExhausted != n || d.FramesDropped != n {
		t.Fatalf("want all %d frames exhausted+dropped, got %v", n, d)
	}
	if d.Retries != n*cfg.StageRetries {
		t.Fatalf("want %d retries, got %d", n*cfg.StageRetries, d.Retries)
	}
	if len(clip.Tracks) != 0 {
		t.Fatalf("tracks materialized from zero detections: %d", len(clip.Tracks))
	}
}

// TestFaultedIngestScenesReportsPerClip: ingesting several scenes
// under faults keeps every clip alive, stores every record, and
// reports degradation per clip.
func TestFaultedIngestScenesReportsPerClip(t *testing.T) {
	s1 := chaosScene(t)
	s2, err := sim.Intersection(sim.IntersectionConfig{
		Frames: 100, Seed: 4, SpawnEvery: 40, Collisions: 1, FPS: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaosConfig(faults.New(faults.Config{
		Seed: 29, FrameDrop: 0.1, SaltPepper: 0.05, SegTransient: 0.1,
	}))
	db := videodb.New()
	for _, job := range []struct {
		name  string
		scene *sim.Scene
	}{{"chaos-tunnel", s1}, {"chaos-xing", s2}} {
		clip, err := ProcessSceneStream(job.scene, cfg)
		if err != nil {
			t.Fatalf("clip %q failed under faults: %v", job.name, err)
		}
		if !clip.Degraded.Any() {
			t.Fatalf("clip %q reported no degradation", job.name)
		}
		rec, err := clip.Record(job.name)
		if err != nil {
			t.Fatalf("clip %q produced no record: %v", job.name, err)
		}
		if err := db.Add(rec); err != nil {
			t.Fatal(err)
		}
	}
	if db.Len() != 2 {
		t.Fatalf("stored %d clips, want 2", db.Len())
	}
}

// TestFrameDropsCoastThroughTracker: drops alone (no pixel damage)
// leave gaps the tracker's coasting fills — confirmed tracks still
// come out, and dropped frames never shrink the clip.
func TestFrameDropsCoastThroughTracker(t *testing.T) {
	scene := chaosScene(t)
	clean, err := ProcessSceneStream(scene, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Tracks) == 0 {
		t.Skip("scene produced no tracks; nothing to compare")
	}
	cfg := chaosConfig(faults.New(faults.Config{Seed: 31, FrameDrop: 0.04}))
	faulted, err := ProcessSceneStream(scene, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if faulted.Degraded.FramesDropped == 0 {
		t.Fatal("no frames dropped at rate 0.04 over 120 frames")
	}
	if len(faulted.Tracks) == 0 {
		t.Fatal("coasting failed to preserve any track through sparse drops")
	}
	if faulted.Video.Len() != clean.Video.Len() {
		t.Fatalf("dropped frames shrank the clip: %d vs %d", faulted.Video.Len(), clean.Video.Len())
	}
	predicted := 0
	for _, tr := range faulted.Tracks {
		for _, o := range tr.Observations {
			if o.Predicted {
				predicted++
			}
		}
	}
	if predicted == 0 {
		t.Fatal("no coasted observations despite dropped frames")
	}
}
