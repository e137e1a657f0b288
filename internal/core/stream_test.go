package core

import (
	"bytes"
	"encoding/gob"
	"testing"

	"milvideo/internal/frame"
	"milvideo/internal/render"
	"milvideo/internal/segment"
	"milvideo/internal/sim"
	"milvideo/internal/track"
	"milvideo/internal/window"
)

// clipSignature gob-encodes a clip's learning-visible output (tracks
// and VS database). Two clips with equal signatures produced exactly
// the same observations, confirmations, features and windows.
func clipSignature(t *testing.T, tracks []*track.Track, vss []window.VS) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(tracks); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(vss); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// streamScenes are the scenarios the identity tests run: both scene
// families normally; under the race detector, one shorter tunnel clip
// (each pipeline run is 10–20× slower there).
func streamScenes(t *testing.T) []*sim.Scene {
	t.Helper()
	frames := 120
	if raceDetectorOn {
		frames = 80
	}
	tun, err := sim.Tunnel(sim.TunnelConfig{
		Frames: frames, Seed: 3, SpawnEvery: 60, WallCrash: 1, FPS: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if raceDetectorOn {
		return []*sim.Scene{tun}
	}
	xing, err := sim.Intersection(sim.IntersectionConfig{
		Frames: 100, Seed: 5, SpawnEvery: 40, Collisions: 1, FPS: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	return []*sim.Scene{tun, xing}
}

// TestProcessVideoStreamMatchesSequential is the streaming pipeline's
// core guarantee: for every scene and every worker count, the
// streamed output is byte-identical to the sequential reference.
func TestProcessVideoStreamMatchesSequential(t *testing.T) {
	variants := []StreamConfig{
		{},              // defaults
		{SegWorkers: 1}, // one worker: segmentation in frame order
		{SegWorkers: 2},
		{SegWorkers: 4}, // batches finish out of order
	}
	if raceDetectorOn {
		variants = variants[:3]
	}
	for _, scene := range streamScenes(t) {
		v, err := render.Video(scene, DefaultConfig().Render)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := ProcessVideoSequential(v, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		want := clipSignature(t, seq.Tracks, seq.VSs)
		for _, sc := range variants {
			cfg := DefaultConfig()
			cfg.Stream = sc
			got, err := ProcessVideoStream(v, cfg)
			if err != nil {
				t.Fatalf("scene %s stream %+v: %v", scene.Name, sc, err)
			}
			if !bytes.Equal(want, clipSignature(t, got.Tracks, got.VSs)) {
				t.Fatalf("scene %s stream %+v: output differs from sequential", scene.Name, sc)
			}
		}
	}
}

// TestProcessSceneStreamAdaptiveMatchesSequential checks the fully
// overlapped three-stage pipeline (adaptive background): rendered
// pixels, tracks and VSs must all match the render-then-process
// reference exactly.
func TestProcessSceneStreamAdaptiveMatchesSequential(t *testing.T) {
	for _, scene := range streamScenes(t) {
		cfg := DefaultConfig()
		cfg.Segment.Adaptive = true

		v, err := render.Video(scene, cfg.Render)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := ProcessVideoSequential(v, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := clipSignature(t, seq.Tracks, seq.VSs)

		got, err := ProcessSceneStream(scene, cfg)
		if err != nil {
			t.Fatalf("scene %s: %v", scene.Name, err)
		}
		if got.Video.Len() != v.Len() {
			t.Fatalf("scene %s: streamed %d frames, want %d", scene.Name, got.Video.Len(), v.Len())
		}
		for i := range v.Frames {
			if !bytes.Equal(v.Frames[i].Pix, got.Video.Frames[i].Pix) {
				t.Fatalf("scene %s frame %d: pixels differ", scene.Name, i)
			}
		}
		if !bytes.Equal(want, clipSignature(t, got.Tracks, got.VSs)) {
			t.Fatalf("scene %s: adaptive output differs from sequential", scene.Name)
		}
	}
}

// TestProcessSceneMatchesStream pins the scene entry point to the
// video one: with a static background, ProcessSceneStream is rendering
// followed by ProcessVideoStream, plus the ground-truth scene.
func TestProcessSceneMatchesStream(t *testing.T) {
	scene := streamScenes(t)[0]
	a, err := ProcessSceneStream(scene, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	v, err := render.Video(scene, DefaultConfig().Render)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ProcessVideoStream(v, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(clipSignature(t, a.Tracks, a.VSs), clipSignature(t, b.Tracks, b.VSs)) {
		t.Fatal("ProcessSceneStream and ProcessVideoStream over the rendered clip disagree")
	}
	if a.Scene != scene || b.Scene != nil {
		t.Fatal("ground-truth scene not carried by the scene path alone")
	}
}

// TestStreamErrorPaths covers the pipeline's failure modes: nil
// inputs, empty clips and mismatched frame sizes, with and without
// concurrency in flight.
func TestStreamErrorPaths(t *testing.T) {
	if _, err := ProcessVideoStream(nil, DefaultConfig()); err == nil {
		t.Fatal("nil video accepted")
	}
	if _, err := ProcessSceneStream(nil, DefaultConfig()); err == nil {
		t.Fatal("nil scene accepted")
	}
	cfg := DefaultConfig()
	cfg.Segment.Adaptive = true
	if _, err := ProcessSceneStream(nil, cfg); err == nil {
		t.Fatal("nil scene accepted (adaptive)")
	}
	empty := &frame.Video{FPS: 25}
	if _, err := ProcessVideoStream(empty, DefaultConfig()); err == nil {
		t.Fatal("empty video accepted")
	}

	// A mid-clip frame-size mismatch must surface as a per-frame
	// tracking error (as in the sequential path) and must not deadlock
	// or leak the worker pool for any stream shape.
	v, err := render.Video(streamScenes(t)[0], DefaultConfig().Render)
	if err != nil {
		t.Fatal(err)
	}
	frames := make([]*frame.Gray, len(v.Frames))
	copy(frames, v.Frames)
	frames[len(frames)/2] = frame.NewGray(8, 8)
	bad := &frame.Video{Frames: frames, FPS: v.FPS, Name: v.Name}
	for _, sc := range []StreamConfig{{}, {SegWorkers: 1}, {SegWorkers: 4}} {
		cfg := DefaultConfig()
		cfg.Stream = sc
		// NewExtractor validates frame sizes, so feed the good video to
		// the extractor and the bad frames to the streaming stage.
		ex, err := segment.NewExtractor(v, cfg.Segment)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := streamTracks(ex, bad.Frames, cfg, &degCounters{}); err == nil {
			t.Fatalf("stream %+v: size mismatch accepted", sc)
		}
	}
}
