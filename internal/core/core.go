// Package core wires the full system together — the paper's Fig. 6
// flow: raw video → vehicle segmentation and tracking → trajectory
// modeling → event features → sliding-window VS/TS extraction →
// interactive MIL retrieval. It is the primary entry point for the
// tools, examples and benchmarks.
//
// Two ingestion paths exist: ProcessSceneStream renders a simulated
// scene and runs the complete vision pipeline over the pixels (the
// default for experiments, where ground truth drives the feedback
// oracle), and ProcessVideoStream consumes an arbitrary clip with no
// ground truth (the path a real deployment would use, with a human
// supplying feedback).
package core

import (
	"errors"
	"fmt"
	"time"

	"milvideo/internal/event"
	"milvideo/internal/faults"
	"milvideo/internal/frame"
	"milvideo/internal/render"
	"milvideo/internal/retrieval"
	"milvideo/internal/segment"
	"milvideo/internal/sim"
	"milvideo/internal/track"
	"milvideo/internal/videodb"
	"milvideo/internal/window"
)

// Config bundles the pipeline parameters of every stage.
type Config struct {
	Render  render.Options
	Segment segment.Options
	Track   track.Options
	Window  window.Config
	// Stream sizes the streaming pipeline's segmentation worker pool;
	// the zero value takes the default. It never changes the output,
	// only the schedule.
	Stream StreamConfig
	// Faults, when non-nil and enabled, injects deterministic ingest
	// faults (frame drops, pixel corruption, latency spikes, transient
	// stage errors) into the streaming pipeline; the clip then reports
	// what it absorbed in Clip.Degraded instead of failing. nil — the
	// default — and a zero-rate injector are both provably inert: the
	// output is byte-identical to the fault-free pipeline. The
	// sequential reference path never injects faults.
	Faults *faults.Injector
	// StageRetries bounds the retry attempts after a transient stage
	// failure (0 means 2); RetryBackoff is the base delay between
	// retries, doubling per attempt (0 means 1ms).
	StageRetries int
	RetryBackoff time.Duration
	// Model is the event model; nil means the paper's accident model.
	Model event.Model
}

// DefaultConfig returns the parameters used by the paper-scale
// experiments.
func DefaultConfig() Config {
	return Config{
		Render:  render.DefaultOptions(),
		Segment: segment.DefaultOptions(),
		Track:   track.DefaultOptions(),
		Window:  window.DefaultConfig(),
		Model:   event.AccidentModel{},
	}
}

// Clip is a fully processed clip: the intermediate products of every
// pipeline stage plus the final VS database.
type Clip struct {
	// Scene is the simulator ground truth; nil when the clip came
	// from ProcessVideoStream.
	Scene *sim.Scene
	// Video is the rendered (or supplied) pixel data.
	Video *frame.Video
	// Tracks are the confirmed vehicle tracks.
	Tracks []*track.Track
	// VSs is the extracted video-sequence database.
	VSs []window.VS
	// Degraded reports the faults the streaming pipeline absorbed
	// while producing this clip (all-zero without an enabled
	// Config.Faults injector).
	Degraded Degradation
	// Config echoes the parameters that produced the clip.
	Config Config
}

// AccidentOracle returns the simulated user for accident queries. It
// requires the clip to carry simulator ground truth.
func (c *Clip) AccidentOracle() (retrieval.Oracle, error) {
	return c.OracleFor(func(t sim.IncidentType) bool { return t.IsAccident() })
}

// OracleFor returns a simulated user answering for the incident types
// accepted by pred.
func (c *Clip) OracleFor(pred func(sim.IncidentType) bool) (retrieval.Oracle, error) {
	if c.Scene == nil {
		return nil, errors.New("core: clip has no ground truth; supply a real oracle")
	}
	// The simulated user only recognizes an event they can actually
	// watch: at least one sampling interval of it must fall inside
	// the window.
	return retrieval.SceneOracle{Scene: c.Scene, Pred: pred, MinOverlap: c.Config.Window.SampleRate}, nil
}

// Session builds a retrieval session over the clip's VS database.
func (c *Clip) Session(oracle retrieval.Oracle, topK int) *retrieval.Session {
	return &retrieval.Session{DB: c.VSs, Oracle: oracle, TopK: topK}
}

// Record converts the clip into a persistable database record.
func (c *Clip) Record(name string) (*videodb.ClipRecord, error) {
	if name == "" {
		return nil, errors.New("core: record needs a name")
	}
	rec := &videodb.ClipRecord{
		Name:      name,
		Frames:    c.Video.Len(),
		FPS:       c.Video.FPS,
		ModelName: c.Config.Model.Name(),
		Window:    c.Config.Window,
		VSs:       c.VSs,
		Meta:      map[string]string{},
	}
	if len(c.Video.Frames) > 0 {
		rec.Width, rec.Height = c.Video.Frames[0].W, c.Video.Frames[0].H
	}
	if c.Scene != nil {
		rec.Incidents = c.Scene.Incidents
		rec.Meta["source"] = "simulated:" + c.Scene.Name
	}
	if err := rec.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return rec, nil
}

// SessionFromRecord reconstructs a retrieval session from a persisted
// clip record, using its stored incident log as the oracle. pred nil
// selects accidents.
func SessionFromRecord(rec *videodb.ClipRecord, pred func(sim.IncidentType) bool, topK int) (*retrieval.Session, error) {
	oracle, err := OracleFromRecord(rec, pred)
	if err != nil {
		return nil, err
	}
	return &retrieval.Session{DB: rec.VSs, Oracle: oracle, TopK: topK}, nil
}

// TrackingQuality evaluates the clip's tracks against its ground
// truth (match radius in pixels).
func (c *Clip) TrackingQuality(matchRadius float64) (track.Quality, error) {
	if c.Scene == nil {
		return track.Quality{}, errors.New("core: clip has no ground truth")
	}
	return track.Evaluate(c.Tracks, c.Scene, matchRadius), nil
}
