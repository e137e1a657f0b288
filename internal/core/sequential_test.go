package core

import (
	"errors"
	"fmt"
	"testing"

	"milvideo/internal/event"
	"milvideo/internal/frame"
	"milvideo/internal/render"
	"milvideo/internal/segment"
	"milvideo/internal/sim"
	"milvideo/internal/track"
	"milvideo/internal/window"
)

// ProcessVideoSequential is the stage-by-stage reference pipeline on
// one goroutine: segment frame i, then track it, for every frame in
// display order, then window the tracks, with no worker pool and no
// inter-stage overlap. It is the oracle the streaming path is verified
// against, and the baseline of BenchmarkIngestSequentialClip.
func ProcessVideoSequential(v *frame.Video, cfg Config) (*Clip, error) {
	if v == nil {
		return nil, errors.New("core: nil video")
	}
	if cfg.Model == nil {
		cfg.Model = event.AccidentModel{}
	}
	ex, err := segment.NewExtractor(v, cfg.Segment)
	if err != nil {
		return nil, fmt.Errorf("core: segmentation: %w", err)
	}
	tr := track.NewTracker(cfg.Track)
	for i, f := range v.Frames {
		segs, err := ex.Segments(f)
		if err != nil {
			return nil, fmt.Errorf("core: tracking: track: frame %d: %w", i, err)
		}
		if err := tr.Update(i, segs); err != nil {
			return nil, fmt.Errorf("core: tracking: %w", err)
		}
	}
	tracks := tr.Flush()
	vss, err := window.Extract(tracks, cfg.Model, v.Len(), cfg.Window)
	if err != nil {
		return nil, fmt.Errorf("core: windowing: %w", err)
	}
	return &Clip{Video: v, Tracks: tracks, VSs: vss, Config: cfg}, nil
}

// BenchmarkIngestSequentialClip measures the one-goroutine reference
// pipeline (segment and track each frame in turn, then window) on the root
// package's pre-rendered 300-frame bench clip (the same scene as
// BenchmarkIngestStreamClip there): the baseline for the streaming
// path.
func BenchmarkIngestSequentialClip(b *testing.B) {
	scene, err := sim.Tunnel(sim.TunnelConfig{
		Frames: 300, Seed: 9, SpawnEvery: 80, WallCrash: 1, FPS: 25,
	})
	if err != nil {
		b.Fatal(err)
	}
	clip, err := render.Video(scene, render.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ProcessVideoSequential(clip, DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}
