package segment

import (
	"fmt"
	"sync"

	"milvideo/internal/frame"
	"milvideo/internal/geom"
)

// segScratch bundles every working buffer one Segments call needs:
// two ping-pong mask frames (the thresholded subtraction and the four
// morphology passes), the connected-components labeling scratch and
// the SPCPE refinement scratch. Pooling the bundle makes steady-state
// per-frame extraction allocate only the returned segment slice.
type segScratch struct {
	maskA, maskB *frame.Gray
	cc           ccScratch
	sp           spcpeScratch
}

var segScratchPool = sync.Pool{New: func() any { return &segScratch{} }}

// ensure sizes the mask buffers for a w×h frame. Mask contents are
// never read before being fully overwritten, so no zeroing is needed.
func (s *segScratch) ensure(w, h int) {
	n := w * h
	if s.maskA == nil || cap(s.maskA.Pix) < n || cap(s.maskB.Pix) < n {
		s.maskA = frame.NewGray(w, h)
		s.maskB = frame.NewGray(w, h)
		return
	}
	s.maskA.W, s.maskA.H, s.maskA.Pix = w, h, s.maskA.Pix[:n]
	s.maskB.W, s.maskB.H, s.maskB.Pix = w, h, s.maskB.Pix[:n]
}

// Options configures the per-frame vehicle extraction pipeline.
type Options struct {
	// DiffThreshold is the minimum absolute background difference for
	// a pixel to count as foreground.
	DiffThreshold uint8
	// MinArea discards components smaller than this many pixels
	// (noise blobs).
	MinArea int
	// Morphology applies one opening + closing pass to the mask when
	// true, suppressing speckle and healing pinholes.
	Morphology bool
	// RefineSPCPE re-estimates each segment's extent with a two-class
	// SPCPE partition of its (slightly expanded) bounding window,
	// mirroring the paper's SPCPE-plus-background-subtraction design.
	RefineSPCPE bool
	// BackgroundSample is the frame stride used by LearnBackground.
	BackgroundSample int
	// Adaptive maintains the background as a selective running
	// average: after each processed frame, background pixels that
	// were NOT foreground blend toward the current frame at
	// AdaptRate. This follows slow illumination drift (clouds, dusk)
	// that defeats a static model. Adaptive extraction is stateful
	// and order-dependent: frames must be processed sequentially in
	// display order (the streaming pipeline in internal/core detects
	// this and segments on one worker).
	Adaptive bool
	// AdaptRate is the per-frame blending factor in (0, 1); 0 means
	// the default 0.02.
	AdaptRate float64
}

// DefaultOptions returns the extraction parameters used throughout the
// experiments; they are tuned for the synthetic renderer's shade
// palette and noise floor.
func DefaultOptions() Options {
	return Options{
		DiffThreshold:    28,
		MinArea:          25,
		Morphology:       true,
		RefineSPCPE:      true,
		BackgroundSample: 40,
	}
}

// Extractor segments vehicles out of video frames against a learned
// background.
type Extractor struct {
	bg  *frame.Gray
	opt Options
	// bgAcc is the floating-point accumulator behind the adaptive
	// background (avoids quantization stalls at low adapt rates).
	bgAcc []float64
}

// NewExtractor learns the background from the clip and returns a
// ready extractor.
func NewExtractor(v *frame.Video, opt Options) (*Extractor, error) {
	if err := v.Validate(); err != nil {
		return nil, fmt.Errorf("segment: invalid video: %w", err)
	}
	if opt.DiffThreshold == 0 {
		opt.DiffThreshold = DefaultOptions().DiffThreshold
	}
	if opt.MinArea <= 0 {
		opt.MinArea = DefaultOptions().MinArea
	}
	if opt.BackgroundSample <= 0 {
		opt.BackgroundSample = DefaultOptions().BackgroundSample
	}
	if opt.AdaptRate <= 0 || opt.AdaptRate >= 1 {
		opt.AdaptRate = 0.02
	}
	// A static median over the whole clip would smear drifting
	// illumination; the adaptive model instead seeds from the first
	// frames and then follows the stream.
	learnFrames := v.Frames
	if opt.Adaptive && len(learnFrames) > 50 {
		learnFrames = learnFrames[:50]
	}
	bg, err := LearnBackground(learnFrames, opt.BackgroundSample)
	if err != nil {
		return nil, err
	}
	e := &Extractor{bg: bg, opt: opt}
	if opt.Adaptive {
		e.bgAcc = make([]float64, len(bg.Pix))
		for i, p := range bg.Pix {
			e.bgAcc[i] = float64(p)
		}
	}
	return e, nil
}

// Adaptive reports whether this extractor is stateful (frames must be
// presented sequentially in display order).
func (e *Extractor) Adaptive() bool { return e.opt.Adaptive }

// Background exposes the learned background frame (for inspection and
// the trackviz tool).
func (e *Extractor) Background() *frame.Gray { return e.bg }

// Segments extracts the vehicle segments of one frame. With Adaptive
// enabled, the background is updated from the frame's non-foreground
// pixels afterwards, so calls must arrive in display order. The
// working buffers (masks, component labels, SPCPE windows) come from a
// shared pool, so steady-state calls allocate only the returned slice;
// the method remains safe for concurrent use on a non-adaptive
// extractor.
func (e *Extractor) Segments(img *frame.Gray) ([]Segment, error) {
	sc := segScratchPool.Get().(*segScratch)
	defer segScratchPool.Put(sc)
	sc.ensure(img.W, img.H)

	// Subtract: |img − bg| ≥ DiffThreshold into the first mask buffer.
	if err := subtractInto(sc.maskA, img, e.bg, e.opt.DiffThreshold); err != nil {
		return nil, err
	}
	mask := sc.maskA
	if e.opt.Morphology {
		// Close(Open(mask)): erode, dilate, dilate, erode, ping-ponging
		// between the two buffers; the result lands back in maskA.
		ErodeInto(sc.maskB, sc.maskA)
		DilateInto(sc.maskA, sc.maskB)
		DilateInto(sc.maskB, sc.maskA)
		ErodeInto(sc.maskA, sc.maskB)
		mask = sc.maskA
	}
	segs := connectedComponentsScratch(mask, img, e.opt.MinArea, &sc.cc)
	if e.opt.RefineSPCPE {
		for i := range segs {
			segs[i] = e.refine(img, segs[i], &sc.sp)
		}
	}
	if e.opt.Adaptive {
		e.adapt(img, mask)
	}
	return segs, nil
}

// adapt blends non-foreground pixels of the frame into the background
// accumulator (selective running average).
func (e *Extractor) adapt(img, mask *frame.Gray) {
	r := e.opt.AdaptRate
	for i := range e.bgAcc {
		if mask.Pix[i] != 0 {
			continue // a vehicle pixel must not pollute the background
		}
		e.bgAcc[i] += r * (float64(img.Pix[i]) - e.bgAcc[i])
		v := e.bgAcc[i]
		if v < 0 {
			v = 0
		} else if v > 255 {
			v = 255
		}
		e.bg.Pix[i] = uint8(v + 0.5)
	}
}

// refine re-estimates a segment with a two-class SPCPE partition of
// its expanded bounding window: the class whose mean deviates more
// from the local background is taken as the vehicle body and supplies
// the refreshed centroid and MBR. On any degeneracy the original
// segment is returned unchanged.
func (e *Extractor) refine(img *frame.Gray, s Segment, sp *spcpeScratch) Segment {
	box := s.MBR.Expand(3)
	x0, y0 := int(box.Min.X), int(box.Min.Y)
	x1, y1 := int(box.Max.X), int(box.Max.Y)
	res, err := spcpe(img, x0, y0, x1, y1, DefaultSPCPEOptions(), sp)
	if err != nil {
		return s
	}
	// Clamp to the frame the same way SPCPE did, so window
	// coordinates line up with result indices.
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}

	// Mean absolute background deviation per class.
	var dev [2]float64
	var cnt [2]int
	for i, l := range res.Labels {
		if l > 1 {
			continue // only the two dominant classes participate
		}
		xx, yy := i%res.W, i/res.W
		px, py := x0+xx, y0+yy
		d := int(img.At(px, py)) - int(e.bg.At(px, py))
		if d < 0 {
			d = -d
		}
		dev[l] += float64(d)
		cnt[l]++
	}
	if cnt[0] == 0 || cnt[1] == 0 {
		return s
	}
	vehClass := 0
	if dev[1]/float64(cnt[1]) > dev[0]/float64(cnt[0]) {
		vehClass = 1
	}

	// Recompute centroid and MBR from the vehicle-class pixels.
	area := 0
	sumX, sumY, sumShade := 0.0, 0.0, 0.0
	minX, minY := 1<<30, 1<<30
	maxX, maxY := -1, -1
	for i, l := range res.Labels {
		if l != vehClass {
			continue
		}
		xx, yy := i%res.W, i/res.W
		px, py := x0+xx, y0+yy
		area++
		sumX += float64(px)
		sumY += float64(py)
		sumShade += float64(img.At(px, py))
		if px < minX {
			minX = px
		}
		if px > maxX {
			maxX = px
		}
		if py < minY {
			minY = py
		}
		if py > maxY {
			maxY = py
		}
	}
	if area < e.opt.MinArea {
		return s
	}
	refined := Segment{
		Label: s.Label,
		MBR: geom.Rect{
			Min: geom.Pt(float64(minX), float64(minY)),
			Max: geom.Pt(float64(maxX+1), float64(maxY+1)),
		},
		Centroid:  geom.Pt(sumX/float64(area), sumY/float64(area)),
		Area:      area,
		MeanShade: sumShade / float64(area),
	}
	// Reject refinements that wander away from the original evidence:
	// the refined centroid must stay inside the expanded box of the
	// raw component.
	if !box.Contains(refined.Centroid) {
		return s
	}
	return refined
}
