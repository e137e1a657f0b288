package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"milvideo/internal/event"
	"milvideo/internal/frame"
	"milvideo/internal/render"
	"milvideo/internal/segment"
	"milvideo/internal/sim"
	"milvideo/internal/track"
	"milvideo/internal/window"
)

// StreamConfig sizes the streaming pipeline's segmentation worker
// pool. It never changes the output — the streamed pipeline is
// byte-identical to the sequential one for every setting.
type StreamConfig struct {
	// SegWorkers bounds the segmentation stage's worker pool; 0 sizes
	// it by GOMAXPROCS. Adaptive (stateful) extraction always uses one
	// worker, since its frames must be segmented in display order.
	SegWorkers int
}

// The pipeline's schedule: streamBatch consecutive frames form one
// unit of channel traffic and reordering, and each inter-stage channel
// holds streamDepth such units. A full channel blocks its producer
// (backpressure), bounding how far rendering may run ahead of
// segmentation and segmentation ahead of tracking.
const (
	streamDepth = 2
	streamBatch = 8
)

// segWorkers resolves the segmentation pool size.
func (sc StreamConfig) segWorkers(adaptive bool) int {
	switch {
	case adaptive:
		return 1
	case sc.SegWorkers <= 0:
		return runtime.GOMAXPROCS(0)
	}
	return sc.SegWorkers
}

// ProcessVideoStream runs segmentation, tracking, trajectory sampling
// and window extraction over the clip as a bounded-channel pipeline:
// segmentation fans frame batches out over a worker pool while the
// tracker consumes the results — resequenced into frame order through
// a small reorder buffer — concurrently, so frame i is tracked while
// frame i+k is still being segmented. Output is byte-identical to
// ProcessVideoSequential: tracking sees the same segments in the same
// order whatever the worker count.
func ProcessVideoStream(v *frame.Video, cfg Config) (*Clip, error) {
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
	deg := &degCounters{}
	tracks, err := streamTracks(ex, v.Frames, cfg, deg)
	if err != nil {
		return nil, fmt.Errorf("core: tracking: %w", err)
	}
	vss, err := window.Extract(tracks, cfg.Model, v.Len(), cfg.Window)
	if err != nil {
		return nil, fmt.Errorf("core: windowing: %w", err)
	}
	return &Clip{Video: v, Tracks: tracks, VSs: vss, Degraded: deg.snapshot(), Config: cfg}, nil
}

// segBatch is one batch of per-frame segmentation results, sequence-
// numbered for in-order delivery to the tracker.
type segBatch struct {
	seq      int
	segs     [][]segment.Segment
	err      error
	errFrame int
}

// streamTracks is the overlapped segment→track stage pair: frame
// batches are segmented by a worker pool and consumed in sequence
// order by the tracker. Workers may finish batches out of order; a
// reorder buffer (bounded by workers + channel depth, since
// backpressure stops anyone from running further ahead) restores frame
// order, which tracking — a stateful, order-dependent stage — needs.
// Every batch is drained even after an error, so no goroutine leaks.
// Fault injection (cfg.Faults) is applied per frame inside the worker
// pool via segmentUnderFaults, accumulating into deg.
func streamTracks(ex *segment.Extractor, frames []*frame.Gray, cfg Config, deg *degCounters) ([]*track.Track, error) {
	n := len(frames)
	if n == 0 {
		return nil, track.ErrEmptyVideo
	}
	batches := (n + streamBatch - 1) / streamBatch
	workers := min(cfg.Stream.segWorkers(ex.Adaptive()), batches)

	work := make(chan int, streamDepth)
	out := make(chan segBatch, streamDepth)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := range work {
				lo := seq * streamBatch
				hi := min(lo+streamBatch, n)
				sb := segBatch{seq: seq, segs: make([][]segment.Segment, hi-lo)}
				for i := lo; i < hi; i++ {
					segs, err := segmentUnderFaults(ex, cfg, deg, i, frames[i])
					if err != nil {
						sb.err, sb.errFrame = err, i
						break
					}
					sb.segs[i-lo] = segs
				}
				out <- sb
			}
		}()
	}
	go func() {
		for seq := 0; seq < batches; seq++ {
			work <- seq
		}
		close(work)
	}()
	go func() {
		wg.Wait()
		close(out)
	}()

	tr := track.NewTracker(cfg.Track)
	pending := make(map[int]segBatch, workers+streamDepth)
	expect := 0
	var firstErr error
	for sb := range out {
		pending[sb.seq] = sb
		for {
			cur, ok := pending[expect]
			if !ok {
				break
			}
			delete(pending, expect)
			if firstErr == nil {
				if cur.err != nil {
					firstErr = fmt.Errorf("track: frame %d: %w", cur.errFrame, cur.err)
				} else {
					lo := expect * streamBatch
					for i, segs := range cur.segs {
						if err := tr.Update(lo+i, segs); err != nil {
							firstErr = err
							break
						}
					}
				}
			}
			expect++
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return tr.Flush(), nil
}

// errStreamStopped is the sentinel a stage returns when a downstream
// error aborted the pipeline; it never escapes to callers.
var errStreamStopped = errors.New("core: stream stopped")

// ProcessSceneStream renders the scene and runs the vision pipeline on
// the rendered pixels as a streaming pipeline. With a static
// background model the renderer must finish before segmentation can
// start (the temporal-median background samples the whole clip), so
// the overlap is between segmentation and tracking. With an adaptive
// background (cfg.Segment.Adaptive) the model learns from the leading
// frames only, and all three stages overlap: frame i is tracked while
// frame i+j is segmented and frame i+k is still being rendered. Either
// way the output is byte-identical to the sequential path.
func ProcessSceneStream(scene *sim.Scene, cfg Config) (*Clip, error) {
	if scene == nil {
		return nil, errors.New("core: nil scene")
	}
	if !cfg.Segment.Adaptive {
		v, err := render.Video(scene, cfg.Render)
		if err != nil {
			return nil, fmt.Errorf("core: render: %w", err)
		}
		c, err := ProcessVideoStream(v, cfg)
		if err != nil {
			return nil, err
		}
		c.Scene = scene
		return c, nil
	}
	c, err := processSceneAdaptiveStream(scene, cfg)
	if err != nil {
		return nil, err
	}
	c.Scene = scene
	return c, nil
}

// renderedFrame and segmentedFrame are the units of inter-stage
// traffic in the adaptive three-stage pipeline.
type renderedFrame struct {
	i int
	f *frame.Gray
}

type segmentedFrame struct {
	i    int
	f    *frame.Gray
	segs []segment.Segment
	err  error
}

// processSceneAdaptiveStream runs render ∥ segment ∥ track as three
// concurrent stages over bounded channels. The adaptive extractor
// learns its background from the first learnCount frames (exactly the
// frames segment.NewExtractor would use), so the segmentation stage
// holds those frames back, builds the extractor while rendering
// continues, then streams — in display order, as adaptive statefulness
// requires. On any stage error the stop channel unblocks the upstream
// stages so nothing leaks.
func processSceneAdaptiveStream(scene *sim.Scene, cfg Config) (*Clip, error) {
	if cfg.Model == nil {
		cfg.Model = event.AccidentModel{}
	}
	n := len(scene.Frames)
	learnCount := n
	if learnCount > 50 {
		learnCount = 50 // mirrors segment.NewExtractor's adaptive seed
	}

	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }
	defer halt()
	deg := &degCounters{}

	rendered := make(chan renderedFrame, streamDepth*streamBatch)
	segmented := make(chan segmentedFrame, streamDepth*streamBatch)
	renderErr := make(chan error, 1)

	go func() {
		defer close(rendered)
		renderErr <- render.Stream(scene, cfg.Render, func(i int, f *frame.Gray) error {
			select {
			case rendered <- renderedFrame{i, f}:
				return nil
			case <-stop:
				return errStreamStopped
			}
		})
	}()

	go func() {
		defer close(segmented)
		send := func(sf segmentedFrame) bool {
			select {
			case segmented <- sf:
				return true
			case <-stop:
				return false
			}
		}
		var ex *segment.Extractor
		var held []renderedFrame
		process := func(rf renderedFrame) bool {
			segs, err := segmentUnderFaults(ex, cfg, deg, rf.i, rf.f)
			if err != nil {
				err = fmt.Errorf("core: tracking: track: frame %d: %w", rf.i, err)
			}
			return send(segmentedFrame{rf.i, rf.f, segs, err}) && err == nil
		}
		for rf := range rendered {
			if ex == nil {
				held = append(held, rf)
				if len(held) < learnCount {
					continue
				}
				lv := &frame.Video{FPS: scene.FPS, Name: scene.Name}
				for _, h := range held {
					lv.Frames = append(lv.Frames, h.f)
				}
				e, err := segment.NewExtractor(lv, cfg.Segment)
				if err != nil {
					send(segmentedFrame{err: fmt.Errorf("core: segmentation: %w", err)})
					return
				}
				ex = e
				for _, h := range held {
					if !process(h) {
						return
					}
				}
				held = nil
				continue
			}
			if !process(rf) {
				return
			}
		}
		// Rendering ended early (validation error): nothing to flush —
		// the consumer will surface the render error.
	}()

	tr := track.NewTracker(cfg.Track)
	frames := make([]*frame.Gray, 0, n)
	var firstErr error
	for sf := range segmented {
		if firstErr != nil {
			continue // draining
		}
		if sf.err != nil {
			firstErr = sf.err
			halt()
			continue
		}
		frames = append(frames, sf.f)
		if err := tr.Update(sf.i, sf.segs); err != nil {
			firstErr = fmt.Errorf("core: tracking: %w", err)
			halt()
		}
	}
	if rerr := <-renderErr; rerr != nil && !errors.Is(rerr, errStreamStopped) {
		return nil, fmt.Errorf("core: render: %w", rerr)
	}
	if firstErr != nil {
		return nil, firstErr
	}

	v := &frame.Video{Frames: frames, FPS: scene.FPS, Name: scene.Name}
	tracks := tr.Flush()
	vss, err := window.Extract(tracks, cfg.Model, v.Len(), cfg.Window)
	if err != nil {
		return nil, fmt.Errorf("core: windowing: %w", err)
	}
	return &Clip{Video: v, Tracks: tracks, VSs: vss, Degraded: deg.snapshot(), Config: cfg}, nil
}
