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

// ProcessVideoSequential is the original stage-by-stage pipeline:
// segmentation over the whole clip (track.Video's worker pool), then
// tracking, then windowing, with no inter-stage overlap. It is the
// oracle the streaming path is verified against, and the baseline of
// BenchmarkIngestSequentialClip.
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
	tracks, err := track.Video(ex, v, cfg.Track)
	if err != nil {
		return nil, fmt.Errorf("core: tracking: %w", err)
	}
	vss, err := window.Extract(tracks, cfg.Model, v.Len(), cfg.Window)
	if err != nil {
		return nil, fmt.Errorf("core: windowing: %w", err)
	}
	return &Clip{Video: v, Tracks: tracks, VSs: vss, Config: cfg}, nil
}

// BenchmarkIngestSequentialClip measures the stage-by-stage reference
// pipeline (segment all frames, then track, then window) on the root
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
